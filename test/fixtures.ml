(* Deployments shared by several suites: the ASIC suite's one-header
   forwarder and the VXLAN gateway's tunnel chains. Both also run in the
   runtime suite's Fast ≡ Reference property. *)

open Dejavu_core

(* --- A one-header chip: Ethernet only, with a scratch header [h] the
   parser declares but never extracts or emits. --- *)

let spec = Asic.Spec.wedge_100b
let meta = P4ir.Hdr.decl "h" [ ("tag", 8) ]

let tiny_parser =
  {
    P4ir.Parser_graph.name = "tiny";
    decls = [ Net_hdrs.eth; meta ];
    start = P4ir.Parser_graph.Goto "eth@0";
    states =
      [ { P4ir.Parser_graph.id = "eth@0"; header = "eth"; offset = 0; select = None } ];
  }

(* Forward everything to a fixed port, optionally resubmitting once
   (keyed on the source MAC, which the first pass stamps, so the second
   pass behaves differently). *)
let forwarder ~out_port ~resubmit_once =
  let open P4ir in
  let set_out =
    Control.Run
      [ Action.Assign (Asic.Stdmeta.egress_spec, Expr.const ~width:9 out_port) ]
  in
  let src = Fieldref.v "eth" "src" in
  let body =
    if resubmit_once then
      [
        Control.If
          ( Expr.(Field src = const ~width:48 0),
            (* First pass: stamp src and resubmit. *)
            [
              Control.Run
                [
                  Action.Assign (src, Expr.const ~width:48 1);
                  Action.Assign (Asic.Stdmeta.resubmit_flag, Expr.const ~width:1 1);
                ];
            ],
            [ set_out ] );
      ]
    else [ set_out ]
  in
  Program.make ~name:"fwd" ~parser:tiny_parser ~tables:[]
    ~control:(Control.make "fwd_c" body)
    ~deparse_order:[ "eth" ] ()

let passthrough name =
  P4ir.Program.empty ~name ~parser:tiny_parser

(* [ingress0] on ingress 0, passthroughs everywhere else. *)
let load_tiny_chip ?(ports = Asic.Port.make spec) ingress0 =
  Result.get_ok
    (Asic.Chip.load
       {
         Asic.Chip.spec;
         ingress_programs = [| ingress0; passthrough "i1" |];
         egress_programs = [| passthrough "e0"; passthrough "e1" |];
         ports;
         mirror_port = None;
       })

let eth_frame ?(src = 0L) () =
  let b = Bytes.make 14 '\000' in
  Netpkt.Bytes_util.set_bits b ~bit_off:48 ~width:48 src;
  Netpkt.Bytes_util.set_uint16 b 12 0x9999;
  b

(* --- The VXLAN gateway deployment: classifier → vxlan_gw → router on
   two paths, tunnel termination (path 60, traffic to the local VTEP
   192.0.2.10) and origination (path 61, traffic into 10.8.0.0/16,
   encapsulated towards 192.0.2.20 with VNI 8001). --- *)

let ip = Netpkt.Ip4.of_string_exn
let pfx = Netpkt.Ip4.prefix_of_string_exn
let mac = Netpkt.Mac.of_string_exn

let tunnels =
  [
    {
      Nflib.Vxlan_gw.dst_prefix = pfx "10.8.0.0/16";
      vni = 8001;
      local_vtep = ip "192.0.2.10";
      remote_vtep = ip "192.0.2.20";
    };
  ]

let tunnel_chains () =
  let rules =
    [
      (* Tunnel termination: traffic to the local VTEP. *)
      {
        Nflib.Classifier.dst_prefix = pfx "192.0.2.10/32";
        proto = None;
        path_id = 60;
        tenant = 6;
      };
      (* Tunnel origination: traffic into the tunneled prefix. *)
      {
        Nflib.Classifier.dst_prefix = pfx "10.8.0.0/16";
        proto = None;
        path_id = 61;
        tenant = 6;
      };
    ]
  in
  let registry : Nf.registry =
    [
      ("classifier", Nflib.Classifier.create rules);
      ("vxlan_gw", Nflib.Vxlan_gw.create tunnels);
      ( "router",
        Nflib.Router.create
          [
            {
              Nflib.Router.prefix = pfx "0.0.0.0/0";
              next_hop_mac = mac "02:00:00:00:aa:01";
              src_mac = mac "02:00:00:00:00:fe";
            };
          ] );
    ]
  in
  let chains =
    [
      Chain.make ~path_id:60 ~name:"terminate"
        ~nfs:[ "classifier"; "vxlan_gw"; "router" ]
        ~weight:0.5 ~exit_port:1 ();
      Chain.make ~path_id:61 ~name:"originate"
        ~nfs:[ "classifier"; "vxlan_gw"; "router" ]
        ~weight:0.5 ~exit_port:1 ();
    ]
  in
  Compiler.compile
    (Compiler.default_input ~registry ~chains ~strategy:Placement.Greedy ())
