(* ASIC model tests: spec geometry, ports, stage allocation, the
   chip walk (forwarding, resubmission, recirculation, drops), and the
   latency model's calibration. *)

open P4ir

let check = Alcotest.check

let spec = Asic.Spec.wedge_100b
let fr = Fieldref.v

(* --- Spec / ports --- *)

let test_spec_geometry () =
  check Alcotest.int "pipelets" 4 (Asic.Spec.n_pipelets spec);
  check Alcotest.int "eth ports" 32 (Asic.Spec.n_eth_ports spec);
  check Alcotest.int "port 0 on pipe 0" 0 (Asic.Spec.port_pipeline spec 0);
  check Alcotest.int "port 16 on pipe 1" 1 (Asic.Spec.port_pipeline spec 16);
  check Alcotest.int "recirc port id" 257 (Asic.Spec.recirc_port 1);
  check Alcotest.bool "recirc port valid" true (Asic.Spec.valid_port spec 257);
  check Alcotest.bool "cpu port valid" true
    (Asic.Spec.valid_port spec Asic.Spec.cpu_port);
  check Alcotest.bool "bogus port invalid" false (Asic.Spec.valid_port spec 100);
  check Alcotest.(float 1e-9) "capacity" 3200.0 (Asic.Spec.total_capacity_gbps spec)

let test_port_modes () =
  let ports = Asic.Port.make spec in
  check Alcotest.int "no loopbacks initially" 0 (Asic.Port.loopback_count ports);
  Asic.Port.set_pipeline_loopback ports spec 1;
  check Alcotest.int "16 loopbacks" 16 (Asic.Port.loopback_count ports);
  check Alcotest.bool "port 16 looped" true (Asic.Port.is_loopback ports 16);
  check Alcotest.bool "port 0 normal" false (Asic.Port.is_loopback ports 0);
  check Alcotest.(float 1e-9) "half external capacity" 0.5
    (Asic.Port.external_capacity_fraction ports)

(* --- chip walk --- *)

(* At [Journeys] the chip records one hop per pipelet pass: [visited]
   reads the pipelets a walk passed through, in order, off its hops. *)
let recording chip =
  Asic.Chip.set_telemetry chip Telemetry.Level.Journeys;
  chip

let visited (r : Asic.Chip.result) =
  List.map
    (fun (h : Telemetry.Journey.hop) -> h.Telemetry.Journey.pipelet)
    r.Asic.Chip.hops

let test_forwarding () =
  let chip =
    recording
      (Fixtures.load_tiny_chip (Fixtures.forwarder ~out_port:17 ~resubmit_once:false))
  in
  match Asic.Chip.inject chip ~in_port:0 (Fixtures.eth_frame ()) with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      match r.Asic.Chip.verdict with
      | Asic.Chip.Emitted { port; _ } ->
          check Alcotest.int "out port" 17 port;
          check Alcotest.int "no recircs" 0 r.Asic.Chip.recircs;
          (* ingress 0 then egress 1 (port 17 is on pipeline 1) *)
          check Alcotest.(list string) "two pipelets visited"
            [ "ingress 0"; "egress 1" ] (visited r)
      | _ -> Alcotest.fail "expected emission")

let test_resubmission () =
  let chip =
    Fixtures.load_tiny_chip (Fixtures.forwarder ~out_port:1 ~resubmit_once:true)
  in
  match Asic.Chip.inject chip ~in_port:0 (Fixtures.eth_frame ()) with
  | Error e -> Alcotest.fail e
  | Ok r ->
      check Alcotest.int "one resubmission" 1 r.Asic.Chip.resubmits;
      (match r.Asic.Chip.verdict with
      | Asic.Chip.Emitted { frame; _ } ->
          (* The stamped src survived the resubmission via the deparser. *)
          check Alcotest.int64 "state carried in header" 1L
            (Netpkt.Bytes_util.get_bits frame ~bit_off:48 ~width:48)
      | _ -> Alcotest.fail "expected emission")

let test_recirculation_via_recirc_port () =
  (* Send to pipeline 1's dedicated recirc port: the packet must come
     back to ingress 1; with no further guidance it then has egress_spec
     0 -> emitted on port 0... to keep it simple, ingress 1 is a
     passthrough so the resulting egress_spec stays 0 (port 0). *)
  let chip =
    recording
      (Fixtures.load_tiny_chip (Fixtures.forwarder ~out_port:257 ~resubmit_once:false))
  in
  match Asic.Chip.inject chip ~in_port:0 (Fixtures.eth_frame ()) with
  | Error e -> Alcotest.fail e
  | Ok r ->
      check Alcotest.int "one recirculation" 1 r.Asic.Chip.recircs;
      check Alcotest.bool "visited ingress 1 after recirc" true
        (List.mem "ingress 1" (visited r))

let test_loopback_port_recirculates () =
  let ports = Asic.Port.make spec in
  Asic.Port.set_mode ports 20 Asic.Port.Loopback;
  let chip =
    Fixtures.load_tiny_chip ~ports (Fixtures.forwarder ~out_port:20 ~resubmit_once:false)
  in
  match Asic.Chip.inject chip ~in_port:0 (Fixtures.eth_frame ()) with
  | Error e -> Alcotest.fail e
  | Ok r -> check Alcotest.int "loopback recirculates" 1 r.Asic.Chip.recircs

let test_drop () =
  let dropper =
    Program.make ~name:"drop" ~parser:Fixtures.tiny_parser ~tables:[]
      ~control:
        (Control.make "c"
           [
             Control.Run
               [ Action.Assign (Asic.Stdmeta.drop_flag, Expr.const ~width:1 1) ];
           ])
      ~deparse_order:[ "eth" ] ()
  in
  let chip = Fixtures.load_tiny_chip dropper in
  match Asic.Chip.inject chip ~in_port:0 (Fixtures.eth_frame ()) with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      match r.Asic.Chip.verdict with
      | Asic.Chip.Dropped -> ()
      | _ -> Alcotest.fail "expected drop")

let test_inject_on_loopback_port_rejected () =
  let ports = Asic.Port.make spec in
  Asic.Port.set_mode ports 0 Asic.Port.Loopback;
  let chip =
    Fixtures.load_tiny_chip ~ports (Fixtures.forwarder ~out_port:1 ~resubmit_once:false)
  in
  check Alcotest.bool "loopback port takes no external traffic" true
    (Result.is_error (Asic.Chip.inject chip ~in_port:0 (Fixtures.eth_frame ())))

let test_unset_egress_goes_port0 () =
  (* A program that never sets egress_spec: port 0 (the zero value). *)
  let chip = Fixtures.load_tiny_chip (Fixtures.passthrough "i0") in
  match Asic.Chip.inject chip ~in_port:3 (Fixtures.eth_frame ()) with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      match r.Asic.Chip.verdict with
      | Asic.Chip.Emitted { port; _ } -> check Alcotest.int "port 0" 0 port
      | _ -> Alcotest.fail "expected emission")

let test_routing_loop_detected () =
  (* Forward forever to the recirc port of pipeline 0. *)
  let looper =
    Program.make ~name:"loop" ~parser:Fixtures.tiny_parser ~tables:[]
      ~control:
        (Control.make "c"
           [
             Control.Run
               [
                 Action.Assign (Asic.Stdmeta.egress_spec, Expr.const ~width:9 256);
               ];
           ])
      ~deparse_order:[ "eth" ] ()
  in
  let chip = Fixtures.load_tiny_chip looper in
  check Alcotest.bool "pass limit enforced" true
    (Result.is_error (Asic.Chip.inject chip ~in_port:0 (Fixtures.eth_frame ())))

(* --- PHV handover: in Fast mode the egress pass starts from the PHV
   the ingress pass ended with when [Pipelet.adopt] proves that equal
   to parsing what the ingress pass would deparse. --- *)

module Core = Dejavu_core

let fig2 =
  lazy (Result.get_ok (Core.Compiler.compile (Nflib.Catalog.edge_cloud_input ())))

(* Ingress 0 and the egress the Fig. 2 walk takes to port 1. *)
let fig2_pipelets () =
  let chip = (Lazy.force fig2).Core.Compiler.chip in
  let pl kind = Asic.Chip.pipelet chip { Asic.Pipelet.pipeline = 0; kind } in
  (pl Asic.Pipelet.Ingress, pl Asic.Pipelet.Egress)

let mac = Netpkt.Mac.of_string_exn
let ip = Netpkt.Ip4.of_string_exn

(* Green, orange and red Fig. 2 traffic, then one frame per other
   branch of the generic parse graph: UDP (to the VXLAN port), VLAN,
   and a frame that already carries an SFC header. *)
let handover_frames =
  let tcp ?(src_port = 40000) dst dst_port =
    Netpkt.Pkt.tcp_flow ~src_mac:(mac "02:00:00:00:00:01")
      ~dst_mac:(mac "02:00:00:00:00:02")
      {
        Netpkt.Flow.src = ip "203.0.113.7";
        dst;
        proto = Netpkt.Ipv4.proto_tcp;
        src_port;
        dst_port;
      }
  in
  let eth ethertype = Netpkt.Pkt.Eth (Netpkt.Eth.make ~dst:(mac "02:00:00:00:00:02") ethertype) in
  let ipv4 protocol =
    Netpkt.Pkt.Ipv4 (Netpkt.Ipv4.make ~protocol ~src:(ip "203.0.113.7") ~dst:(ip "10.0.3.17") ())
  in
  let udp = Netpkt.Pkt.Udp (Netpkt.Udp.make ~src_port:5000 ~dst_port:Netpkt.Udp.port_vxlan ()) in
  let l4 = List.nth (tcp (ip "10.0.3.17") 443) 2 in
  [
    ("green", tcp (ip "10.0.3.17") 443);
    ("orange", tcp (ip "10.0.2.33") 80);
    ("red", tcp ~src_port:7777 Nflib.Catalog.tenant1_vip 80);
    ("udp", [ eth Netpkt.Eth.ethertype_ipv4; ipv4 Netpkt.Ipv4.proto_udp; udp ]);
    ( "vlan",
      [
        eth Netpkt.Eth.ethertype_vlan;
        Netpkt.Pkt.Vlan (Netpkt.Vlan.make ~vid:7 Netpkt.Eth.ethertype_ipv4);
        ipv4 Netpkt.Ipv4.proto_tcp;
        l4;
      ] );
    ( "sfc",
      [
        eth Netpkt.Eth.ethertype_sfc;
        Netpkt.Pkt.Sfc_raw
          (Core.Sfc_header.encode
             { Core.Sfc_header.default with service_path_id = 10; service_index = 3 });
        ipv4 Netpkt.Ipv4.proto_tcp;
        l4;
      ] );
  ]
  |> List.map (fun (name, pkt) -> (name, Netpkt.Pkt.encode pkt))
  |> Array.of_list

let parse_ok pl frame =
  match Asic.Pipelet.parse pl frame with Ok r -> r | Error e -> Alcotest.fail e

type edit = Flip of string | Set of Fieldref.t * int

let pp_edit = function
  | Flip h -> "flip " ^ h
  | Set (r, v) -> Printf.sprintf "%s := %d" (Fieldref.to_string r) v

(* Every select field of the generic parse graph, with the values that
   send it down each branch (and one that matches none). *)
let select_values =
  [
    ( Core.Net_hdrs.eth_ethertype,
      Netpkt.Eth.[ ethertype_ipv4; ethertype_sfc; ethertype_vlan; 0x88b6 ] );
    (Core.Sfc_header.next_protocol, [ Core.Sfc_header.next_proto_ipv4; 2; 0 ]);
    (Fieldref.v "vlan" "ethertype", [ Netpkt.Eth.ethertype_ipv4; 0x88b6 ]);
    (Core.Net_hdrs.ip_proto, Netpkt.Ipv4.[ proto_tcp; proto_udp; 1 ]);
    (Core.Net_hdrs.udp_dport, [ Netpkt.Udp.port_vxlan; 53 ]);
  ]

let edit_gen decls =
  let open QCheck.Gen in
  let names = List.map (fun (d : Hdr.decl) -> d.Hdr.name) decls in
  frequency
    [
      (2, map (fun h -> Flip h) (oneofl names));
      ( 3,
        let* r, vs = oneofl select_values in
        let* v = oneofl vs in
        return (Set (r, v)) );
      ( 2,
        let* d = oneofl decls in
        let* f = oneofl d.Hdr.fields in
        let* v = int in
        return (Set (Fieldref.v d.Hdr.name f.Hdr.name, v land Hdr.mask f.Hdr.width)) );
    ]

let apply_edit phv = function
  | Flip h -> if Phv.is_valid phv h then Phv.set_invalid phv h else Phv.set_valid phv h
  | Set (r, v) -> Phv.set_int phv r v

(* Frames parsed by ingress 0 (and maybe run through its control), then
   random cell edits: validity flips, select fields set onto other
   branches, other fields set to in-width values. Either the egress
   pipelet adopts the PHV, which then equals its parse of what ingress
   0 deparses, with the same payload — or it refuses and leaves every
   cell as it was. *)
let prop_adopt_is_parse_of_deparse =
  let ingress, egress = fig2_pipelets () in
  let decls = Phv.decls (fst (parse_ok ingress (snd handover_frames.(0)))) in
  let gen =
    QCheck.Gen.(
      triple
        (int_bound (Array.length handover_frames - 1))
        bool
        (list_size (int_bound 4) (edit_gen decls)))
  in
  let print (i, run, edits) =
    Printf.sprintf "%s frame, control %b, edits [%s]" (fst handover_frames.(i)) run
      (String.concat "; " (List.map pp_edit edits))
  in
  QCheck.Test.make ~name:"adopt = parse of deparse_fast, or untouched" ~count:1000
    (QCheck.make ~print gen)
    (fun (i, run, edits) ->
      let phv, payload = parse_ok ingress (snd handover_frames.(i)) in
      if run then Asic.Pipelet.process ingress phv;
      List.iter (apply_edit phv) edits;
      let before = Phv.copy phv in
      let reparsed =
        Asic.Pipelet.parse egress (Asic.Pipelet.deparse_fast ingress before ~payload)
      in
      if Asic.Pipelet.adopt egress phv then
        match reparsed with
        | Ok (expected, payload') -> Phv.equal phv expected && Bytes.equal payload payload'
        | Error _ -> false
      else Phv.equal phv before)

(* Unedited traffic after the Fig. 2 ingress control is handed over,
   except the VLAN-tagged frame: the classifier pushes an SFC header
   whose next protocol says IPv4 in front of the tag, so the egress
   parser would read the tag as IPv4 — bytes it is. *)
let test_fig2_handovers () =
  let ingress, egress = fig2_pipelets () in
  Array.iter
    (fun (name, frame) ->
      let phv, _ = parse_ok ingress frame in
      Asic.Pipelet.process ingress phv;
      check Alcotest.bool name (name <> "vlan") (Asic.Pipelet.adopt egress phv))
    handover_frames

(* Compiled code runs only on PHVs of its pipelet's layout: a PHV of
   another layout, even one holding the same headers, is refused rather
   than run by name. *)
let test_other_layout_refused () =
  let ingress, _ = fig2_pipelets () in
  let phv, payload = parse_ok ingress (snd handover_frames.(0)) in
  let other = Phv.create (Phv.decls phv) in
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s ran on a PHV of another layout" what
    | exception Invalid_argument _ -> ()
  in
  refused "process" (fun () -> Asic.Pipelet.process ingress other);
  refused "deparse_fast" (fun () -> ignore (Asic.Pipelet.deparse_fast ingress other ~payload))

(* An ingress action rewrites eth.ethertype to a value the parse graph
   does not know while the SFC header stays valid. Through bytes, the
   egress parser then extracts only Ethernet and carries the SFC header
   and everything after it as payload; the handover must refuse, and
   the Fast walk must still equal the Reference walk. *)
let test_rewritten_ethertype_refused () =
  let compiled = Lazy.force fig2 in
  let gp = compiled.Core.Compiler.generic_parser in
  let order =
    (Asic.Pipelet.program (fst (fig2_pipelets ()))).Program.deparse_order
  in
  let program name body =
    Program.make ~name ~parser:gp ~tables:[]
      ~control:(Control.make (name ^ "_c") body) ~deparse_order:order ()
  in
  let src = Core.Net_hdrs.eth_src in
  let stamp v = [ Control.Run [ Action.Assign (src, Expr.const ~width:48 v) ] ] in
  let egress name =
    program name [ Control.If (Expr.Valid Core.Sfc_header.name, stamp 1, stamp 2) ]
  in
  let chip =
    Result.get_ok
      (Asic.Chip.load
         {
           Asic.Chip.spec;
           ingress_programs =
             [|
               program "rewrite"
                 [
                   Control.Run
                     [
                       Action.Assign (Core.Net_hdrs.eth_ethertype, Expr.const ~width:16 0x88b6);
                       Action.Assign (Asic.Stdmeta.egress_spec, Expr.const ~width:9 17);
                     ];
                 ];
               program "i1" [];
             |];
           egress_programs = [| egress "e0"; egress "e1" |];
           ports = Asic.Port.make spec;
           mirror_port = None;
         })
  in
  let frame = List.assoc "sfc" (Array.to_list handover_frames) in
  let ingress = Asic.Chip.pipelet chip { Asic.Pipelet.pipeline = 0; kind = Asic.Pipelet.Ingress } in
  let egress = Asic.Chip.pipelet chip { Asic.Pipelet.pipeline = 1; kind = Asic.Pipelet.Egress } in
  let phv, _ = parse_ok ingress frame in
  Asic.Pipelet.process ingress phv;
  check Alcotest.bool "egress refuses the PHV" false (Asic.Pipelet.adopt egress phv);
  let walk mode =
    Asic.Chip.set_exec_mode chip mode;
    Asic.Chip.inject chip ~in_port:0 frame
  in
  let fast = walk Asic.Chip.Fast in
  check Alcotest.bool "fast = reference" true (fast = walk Asic.Chip.Reference);
  match fast with
  | Ok { Asic.Chip.verdict = Asic.Chip.Emitted { port = 17; frame = out }; _ } ->
      check Alcotest.int64 "egress saw no SFC header" 2L
        (Netpkt.Bytes_util.get_bits out ~bit_off:48 ~width:48);
      check Alcotest.int "rewritten ethertype" 0x88b6 (Netpkt.Bytes_util.get_uint16 out 12);
      let rest b = Bytes.sub b 14 (Bytes.length b - 14) in
      check Alcotest.bytes "SFC header onwards carried as payload" (rest frame) (rest out)
  | Ok _ -> Alcotest.fail "expected emission on port 17"
  | Error e -> Alcotest.fail e

(* --- stage allocation --- *)

let wide_table n =
  Table.make ~name:(Printf.sprintf "w%d" n)
    ~keys:[ { Table.field = fr "eth" "dst"; kind = Table.Exact; width = 48 } ]
    ~actions:[ Action.no_op ] ~default:("NoAction", []) ~max_size:1024 ()

let test_stage_allocation_packs_independent () =
  (* Independent tables pack into stage 0 until table ids run out. *)
  let tables = List.init 20 wide_table in
  let control = Control.make "c" (List.map (fun t -> Control.Apply (Table.name t)) tables) in
  let program =
    Program.make ~name:"p" ~parser:Fixtures.tiny_parser ~tables ~control
      ~deparse_order:[ "eth" ] ()
  in
  match Asic.Pipelet.allocate_stages spec program with
  | Error e -> Alcotest.fail e
  | Ok alloc ->
      check Alcotest.int "all tables placed" 20 (List.length alloc);
      (* 48 hash bits per table against 416 per stage: 8 tables/stage. *)
      let per_stage s = List.length (List.filter (fun (_, x) -> x = s) alloc) in
      check Alcotest.int "stage 0 filled to the hash-bit cap" 8 (per_stage 0);
      check Alcotest.int "stage 1 filled" 8 (per_stage 1);
      check Alcotest.int "remainder in stage 2" 4 (per_stage 2)

let test_stage_allocation_overflow () =
  (* A dependency chain longer than the pipelet's stages cannot load. *)
  let mk_chain n =
    List.init n (fun i ->
        let tag_field = fr "h" "tag" in
        Table.make ~name:(Printf.sprintf "c%d" i)
          ~keys:[ { Table.field = tag_field; kind = Table.Exact; width = 8 } ]
          ~actions:
            [
              Action.make "w"
                [
                  Action.Assign
                    (tag_field, Expr.(Field tag_field + const ~width:8 1));
                ];
            ]
          ~default:("w", []) ())
  in
  let tables = mk_chain (spec.Asic.Spec.stages_per_pipelet + 1) in
  let control = Control.make "c" (List.map (fun t -> Control.Apply (Table.name t)) tables) in
  let program =
    Program.make ~name:"p" ~parser:Fixtures.tiny_parser ~tables ~control
      ~deparse_order:[ "eth" ] ()
  in
  check Alcotest.bool "too-long chain rejected" true
    (Result.is_error (Asic.Pipelet.allocate_stages spec program))

(* --- latency --- *)

let test_latency_calibration () =
  let p2p = Asic.Latency.port_to_port_ns spec in
  check Alcotest.bool "port-to-port ~650ns" true (abs_float (p2p -. 650.0) < 30.0);
  let on_chip = Asic.Latency.recirc_on_chip_ns spec in
  check Alcotest.bool "on-chip recirc ~75ns" true (abs_float (on_chip -. 75.0) < 5.0);
  let off_chip = Asic.Latency.recirc_off_chip_ns spec ~cable_m:1.0 in
  check Alcotest.bool "off-chip recirc ~145ns" true
    (abs_float (off_chip -. 145.0) < 10.0);
  check Alcotest.bool "off-chip ~2x on-chip (paper's takeaway 3)" true
    (off_chip /. on_chip > 1.7 && off_chip /. on_chip < 2.3);
  check Alcotest.bool "recirc small vs port-to-port (takeaway 3)" true
    (on_chip /. p2p < 0.15)

let test_latency_accumulates_in_walk () =
  let chip =
    Fixtures.load_tiny_chip (Fixtures.forwarder ~out_port:1 ~resubmit_once:false)
  in
  let direct =
    match Asic.Chip.inject chip ~in_port:0 (Fixtures.eth_frame ()) with
    | Ok r -> r.Asic.Chip.latency_ns
    | Error e -> Alcotest.fail e
  in
  let chip2 =
    Fixtures.load_tiny_chip (Fixtures.forwarder ~out_port:257 ~resubmit_once:false)
  in
  let with_recirc =
    match Asic.Chip.inject chip2 ~in_port:0 (Fixtures.eth_frame ()) with
    | Ok r -> r.Asic.Chip.latency_ns
    | Error e -> Alcotest.fail e
  in
  check Alcotest.bool "recirculated path is slower" true (with_recirc > direct);
  check Alcotest.(float 1e-6) "port-to-port matches model"
    (Asic.Latency.port_to_port_ns spec) direct

let () =
  Alcotest.run "asic"
    [
      ( "spec",
        [
          Alcotest.test_case "geometry" `Quick test_spec_geometry;
          Alcotest.test_case "port modes" `Quick test_port_modes;
        ] );
      ( "chip",
        [
          Alcotest.test_case "forwarding" `Quick test_forwarding;
          Alcotest.test_case "resubmission" `Quick test_resubmission;
          Alcotest.test_case "recirc port" `Quick test_recirculation_via_recirc_port;
          Alcotest.test_case "loopback port" `Quick test_loopback_port_recirculates;
          Alcotest.test_case "drop" `Quick test_drop;
          Alcotest.test_case "loopback inject rejected" `Quick
            test_inject_on_loopback_port_rejected;
          Alcotest.test_case "unset egress" `Quick test_unset_egress_goes_port0;
          Alcotest.test_case "routing loop" `Quick test_routing_loop_detected;
        ] );
      ( "handover",
        [
          Alcotest.test_case "fig2 handovers" `Quick test_fig2_handovers;
          Alcotest.test_case "rewritten ethertype refused" `Quick
            test_rewritten_ethertype_refused;
          Alcotest.test_case "other layout refused" `Quick test_other_layout_refused;
          QCheck_alcotest.to_alcotest prop_adopt_is_parse_of_deparse;
        ] );
      ( "stages",
        [
          Alcotest.test_case "independent pack" `Quick
            test_stage_allocation_packs_independent;
          Alcotest.test_case "overflow" `Quick test_stage_allocation_overflow;
        ] );
      ( "latency",
        [
          Alcotest.test_case "calibration" `Quick test_latency_calibration;
          Alcotest.test_case "accumulates" `Quick test_latency_accumulates_in_walk;
        ] );
    ]
