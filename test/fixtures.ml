(* Deployments and traffic shared by several suites: the ASIC suite's
   one-header forwarder and the VXLAN gateway's tunnel chains (both also
   run in the runtime suite's Fast ≡ Reference property), the Fig. 2
   deployment with a production-scale FIB, and the four-class Fig. 2
   traffic mix. *)

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

(* --- The Fig. 2 deployment with a 546-prefix FIB: 512 /24s and 32
   /20s in 172.16.0.0/12, routed like the deployment's own two routes,
   so no test packet hits them but every lookup runs at production
   table scale. --- *)

let fib_entry ~prefix_len addr =
  {
    P4ir.Table.priority = 0;
    patterns =
      [ P4ir.Table.M_lpm { value = P4ir.Bitval.of_int ~width:32 addr; prefix_len } ];
    action = "route";
    args =
      [
        P4ir.Bitval.of_int ~width:48 0x020000aa0001;
        P4ir.Bitval.of_int ~width:48 0x0200000000fe;
      ];
  }

let fib_entries =
  List.init 512 (fun i ->
      fib_entry ~prefix_len:24
        ((172 lsl 24) lor ((16 + (i lsr 8)) lsl 16) lor ((i land 0xff) lsl 8)))
  @ List.init 32 (fun i ->
        fib_entry ~prefix_len:20
          ((172 lsl 24) lor ((24 + (i lsr 4)) lsl 16) lor ((i land 0xf) lsl 12)))

let fig2_compiled () =
  let compiled =
    Result.get_ok (Compiler.compile (Nflib.Catalog.edge_cloud_input ()))
  in
  let ops =
    List.map
      (fun e -> Ctrl.Table (Nflib.Catalog.routes_table_name, Ctrl.Add e))
      fib_entries
  in
  (match Ctrl.apply_all compiled.Compiler.chip ops with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  compiled

(* The four-class Fig. 2 mix: two pre-provisioned tenants (green and
   orange), orange web traffic, and LB flows to the tenant-1 VIP that
   punt to the CPU on their first packet. Every packet is a flow of its
   own. *)
let mixed_workload n =
  List.init n (fun i ->
      let ip = Netpkt.Ip4.of_string_exn in
      let dst, dst_port =
        match i mod 4 with
        | 0 -> (ip "10.0.3.17", 443)
        | 1 -> (ip "10.0.2.33", 80)
        | 2 -> (Nflib.Catalog.tenant1_vip, 80)
        | _ -> (ip "10.0.3.50", 8080)
      in
      let frame =
        Netpkt.Pkt.encode
          (Netpkt.Pkt.tcp_flow
             ~src_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:01")
             ~dst_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:02")
             {
               Netpkt.Flow.src = ip "203.0.113.7";
               dst;
               proto = Netpkt.Ipv4.proto_tcp;
               src_port = 1024 + i;
               dst_port;
             })
      in
      (0, frame))
