(* The VXLAN tunnel gateway: deep-offset overlay parsing, decap/encap
   semantics against the layered reference, and end-to-end tunnel
   termination/origination on the chip. *)

open Dejavu_core

let check = Alcotest.check

let ip = Netpkt.Ip4.of_string_exn
let mac = Netpkt.Mac.of_string_exn

let inner_tuple =
  {
    Netpkt.Flow.src = ip "172.16.5.5";
    dst = ip "10.8.3.3";
    proto = Netpkt.Ipv4.proto_tcp;
    src_port = 33333;
    dst_port = 443;
  }

let sfc_hdr = { Sfc_header.default with service_path_id = 9; service_index = 1 }

(* eth / sfc / outer ipv4 / udp:4789 / vxlan / inner eth / inner ipv4 / tcp *)
let encapsulated_pkt () =
  [
    Netpkt.Pkt.Eth (Netpkt.Eth.make ~dst:(mac "02:00:00:00:00:02") Netpkt.Eth.ethertype_sfc);
    Netpkt.Pkt.Sfc_raw (Sfc_header.encode sfc_hdr);
    Netpkt.Pkt.Ipv4
      (Netpkt.Ipv4.make ~protocol:Netpkt.Ipv4.proto_udp ~src:(ip "192.0.2.20")
         ~dst:(ip "192.0.2.10") ());
    Netpkt.Pkt.Udp (Netpkt.Udp.make ~src_port:50000 ~dst_port:Netpkt.Udp.port_vxlan ());
    Netpkt.Pkt.Vxlan (Netpkt.Vxlan.make 8001);
    Netpkt.Pkt.Eth (Netpkt.Eth.make ~dst:(mac "02:00:00:00:00:99") Netpkt.Eth.ethertype_ipv4);
    Netpkt.Pkt.Ipv4
      (Netpkt.Ipv4.make ~protocol:inner_tuple.Netpkt.Flow.proto
         ~src:inner_tuple.Netpkt.Flow.src ~dst:inner_tuple.Netpkt.Flow.dst ());
    Netpkt.Pkt.Tcp
      (Netpkt.Tcp.make ~src_port:inner_tuple.Netpkt.Flow.src_port
         ~dst_port:inner_tuple.Netpkt.Flow.dst_port ());
  ]

let nf () = Result.get_ok (Nflib.Vxlan_gw.create Fixtures.tunnels ())

let run_nf nf_inst phv =
  P4ir.Control.exec (Nf.table_env nf_inst) (Nf.control nf_inst) phv

let parse_with nf_inst pkt =
  let phv = P4ir.Phv.create [] in
  (match
     P4ir.Parser_graph.parse nf_inst.Nf.parser (Netpkt.Pkt.encode pkt) phv
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Asic.Stdmeta.attach phv;
  phv

(* --- parser: the deep offsets exist and extract correctly --- *)

let test_overlay_parse () =
  let phv = parse_with (nf ()) (encapsulated_pkt ()) in
  check Alcotest.bool "vxlan parsed" true (P4ir.Phv.is_valid phv "vxlan");
  check Alcotest.int "vni" 8001
    (P4ir.Phv.get_int phv (P4ir.Fieldref.v "vxlan" "vni"));
  check Alcotest.bool "inner ipv4 parsed (offset 84)" true
    (P4ir.Phv.is_valid phv "inner_ipv4");
  check Alcotest.int64 "inner dst"
    (Netpkt.Ip4.to_int64 inner_tuple.Netpkt.Flow.dst)
    (P4ir.Bitval.to_int64
       (P4ir.Phv.get phv (P4ir.Fieldref.v "inner_ipv4" "dst_addr")));
  check Alcotest.bool "inner tcp parsed (offset 104)" true
    (P4ir.Phv.is_valid phv "inner_tcp")

let test_overlay_parses_pre_sfc_too () =
  (* A raw (pre-classification) encapsulated packet has its overlay 20
     bytes higher — the same header types at different offsets, i.e.
     different parser vertices. Both shapes must parse, or a decap NF
     sharing the classifier's pipelet would be blind. *)
  let raw = List.filter (function Netpkt.Pkt.Sfc_raw _ -> false | _ -> true) (encapsulated_pkt ()) in
  let raw =
    match raw with
    | Netpkt.Pkt.Eth e :: rest ->
        Netpkt.Pkt.Eth { e with Netpkt.Eth.ethertype = Netpkt.Eth.ethertype_ipv4 } :: rest
    | _ -> assert false
  in
  let phv = parse_with (nf ()) raw in
  check Alcotest.bool "outer udp parsed" true (P4ir.Phv.is_valid phv "udp");
  check Alcotest.bool "overlay parsed at the shifted offsets" true
    (P4ir.Phv.is_valid phv "vxlan");
  check Alcotest.int64 "inner dst at offset 64"
    (Netpkt.Ip4.to_int64 inner_tuple.Netpkt.Flow.dst)
    (P4ir.Bitval.to_int64
       (P4ir.Phv.get phv (P4ir.Fieldref.v "inner_ipv4" "dst_addr")))

(* --- decap --- *)

let test_decap_normalizes () =
  let nf_inst = nf () in
  let phv = parse_with nf_inst (encapsulated_pkt ()) in
  run_nf nf_inst phv;
  check Alcotest.bool "vxlan gone" false (P4ir.Phv.is_valid phv "vxlan");
  check Alcotest.bool "inner eth gone" false (P4ir.Phv.is_valid phv "inner_eth");
  check Alcotest.bool "inner ipv4 gone" false (P4ir.Phv.is_valid phv "inner_ipv4");
  check Alcotest.bool "outer udp replaced by inner transport" false
    (P4ir.Phv.is_valid phv "udp");
  check Alcotest.bool "tcp now valid" true (P4ir.Phv.is_valid phv "tcp");
  check Alcotest.int "tcp dport from inner" 443
    (P4ir.Phv.get_int phv Net_hdrs.tcp_dport);
  check Alcotest.int64 "ipv4 now the inner addresses"
    (Netpkt.Ip4.to_int64 inner_tuple.Netpkt.Flow.dst)
    (P4ir.Bitval.to_int64 (P4ir.Phv.get phv Net_hdrs.ip_dst))

let test_decap_matches_reference_bytes () =
  (* Deparse after decap = the layered reference model's stripping. *)
  let nf_inst = nf () in
  let pkt = encapsulated_pkt () in
  let phv = P4ir.Phv.create [] in
  let frame = Netpkt.Pkt.encode pkt in
  let consumed =
    Result.get_ok (P4ir.Parser_graph.parse nf_inst.Nf.parser frame phv)
  in
  Asic.Stdmeta.attach phv;
  run_nf nf_inst phv;
  let payload = Bytes.sub frame consumed (Bytes.length frame - consumed) in
  let out =
    P4ir.Parser_graph.deparse ~order:Net_hdrs.deparse_order phv ~payload
  in
  let expected = Netpkt.Pkt.encode (Nflib.Vxlan_gw.reference_decap pkt) in
  check Alcotest.bytes "byte-identical to the reference strip" expected out

(* --- encap --- *)

let plain_pkt ~dst =
  Netpkt.Pkt.Eth (Netpkt.Eth.make ~dst:(mac "02:00:00:00:00:02") Netpkt.Eth.ethertype_sfc)
  :: Netpkt.Pkt.Sfc_raw (Sfc_header.encode sfc_hdr)
  :: List.tl
       (Netpkt.Pkt.tcp_flow ~src_mac:(mac "02:00:00:00:00:01")
          ~dst_mac:(mac "02:00:00:00:00:02")
          { inner_tuple with Netpkt.Flow.dst })

let test_encap_builds_tunnel () =
  let nf_inst = nf () in
  let phv = parse_with nf_inst (plain_pkt ~dst:(ip "10.8.9.9")) in
  run_nf nf_inst phv;
  check Alcotest.bool "vxlan pushed" true (P4ir.Phv.is_valid phv "vxlan");
  check Alcotest.int "vni" 8001 (P4ir.Phv.get_int phv (P4ir.Fieldref.v "vxlan" "vni"));
  check Alcotest.int64 "outer dst = remote vtep"
    (Netpkt.Ip4.to_int64 (ip "192.0.2.20"))
    (P4ir.Bitval.to_int64 (P4ir.Phv.get phv Net_hdrs.ip_dst));
  check Alcotest.bool "outer udp is the tunnel" true (P4ir.Phv.is_valid phv "udp");
  check Alcotest.int "tunnel port" 4789 (P4ir.Phv.get_int phv Net_hdrs.udp_dport);
  check Alcotest.bool "inner tcp kept" true (P4ir.Phv.is_valid phv "inner_tcp");
  check Alcotest.bool "outer tcp gone" false (P4ir.Phv.is_valid phv "tcp");
  check Alcotest.int64 "inner dst preserved"
    (Netpkt.Ip4.to_int64 (ip "10.8.9.9"))
    (P4ir.Bitval.to_int64
       (P4ir.Phv.get phv (P4ir.Fieldref.v "inner_ipv4" "dst_addr")))

let test_encap_misses_other_traffic () =
  let nf_inst = nf () in
  let phv = parse_with nf_inst (plain_pkt ~dst:(ip "10.7.1.1")) in
  run_nf nf_inst phv;
  check Alcotest.bool "untunneled traffic untouched" false
    (P4ir.Phv.is_valid phv "vxlan")

let test_encap_decap_roundtrip () =
  (* Encapsulate, deparse, re-parse, decapsulate: the 5-tuple survives. *)
  let nf_inst = nf () in
  let phv = parse_with nf_inst (plain_pkt ~dst:(ip "10.8.9.9")) in
  run_nf nf_inst phv;
  let out = P4ir.Parser_graph.deparse ~order:Net_hdrs.deparse_order phv ~payload:Bytes.empty in
  let nf2 = nf () in
  let phv2 = P4ir.Phv.create [] in
  (match P4ir.Parser_graph.parse nf2.Nf.parser out phv2 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Asic.Stdmeta.attach phv2;
  run_nf nf2 phv2;
  check Alcotest.int64 "dst restored"
    (Netpkt.Ip4.to_int64 (ip "10.8.9.9"))
    (P4ir.Bitval.to_int64 (P4ir.Phv.get phv2 Net_hdrs.ip_dst));
  check Alcotest.int "sport restored" 33333
    (P4ir.Phv.get_int phv2 Net_hdrs.tcp_sport);
  check Alcotest.bool "no overlay left" false (P4ir.Phv.is_valid phv2 "vxlan")

(* --- on the chip --- *)

let test_tunnel_termination_on_chip () =
  match Fixtures.tunnel_chains () with
  | Error e -> Alcotest.fail e
  | Ok compiled -> (
      let rt = Runtime.create compiled in
      (* Raw encapsulated frame from the wire (no SFC yet). *)
      let raw =
        List.filter_map
          (function
            | Netpkt.Pkt.Sfc_raw _ -> None
            | Netpkt.Pkt.Eth e when e.Netpkt.Eth.ethertype = Netpkt.Eth.ethertype_sfc ->
                Some (Netpkt.Pkt.Eth { e with Netpkt.Eth.ethertype = Netpkt.Eth.ethertype_ipv4 })
            | l -> Some l)
          (encapsulated_pkt ())
      in
      match
        Ptf.send_expect rt ~in_port:0 raw ~expect:(Ptf.Emitted_on 1)
          ~check:(fun layers ->
            if List.exists (function Netpkt.Pkt.Vxlan _ -> true | _ -> false) layers
            then Error "tunnel not terminated"
            else
              match Netpkt.Pkt.five_tuple_of layers with
              | Some t when Netpkt.Flow.equal_five_tuple t inner_tuple -> Ok ()
              | Some t ->
                  Error
                    (Format.asprintf "wrong inner flow: %a" Netpkt.Flow.pp_five_tuple t)
              | None -> Error "no flow in output")
          ()
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)

let test_tunnel_origination_on_chip () =
  match Fixtures.tunnel_chains () with
  | Error e -> Alcotest.fail e
  | Ok compiled -> (
      let rt = Runtime.create compiled in
      let pkt =
        Netpkt.Pkt.tcp_flow ~src_mac:(mac "02:00:00:00:00:01")
          ~dst_mac:(mac "02:00:00:00:00:02")
          { inner_tuple with Netpkt.Flow.dst = ip "10.8.77.1" }
      in
      match
        Ptf.send_expect rt ~in_port:0 pkt ~expect:(Ptf.Emitted_on 1)
          ~check:(fun layers ->
            match
              List.find_map (function Netpkt.Pkt.Vxlan v -> Some v | _ -> None) layers
            with
            | Some v when v.Netpkt.Vxlan.vni = 8001 -> (
                match Netpkt.Pkt.find_ipv4 layers with
                | Some outer when Netpkt.Ip4.equal outer.Netpkt.Ipv4.dst (ip "192.0.2.20")
                  ->
                    Ok ()
                | Some outer ->
                    Error
                      (Printf.sprintf "outer dst %s, expected the remote vtep"
                         (Netpkt.Ip4.to_string outer.Netpkt.Ipv4.dst))
                | None -> Error "no outer ipv4")
            | Some v -> Error (Printf.sprintf "vni %d" v.Netpkt.Vxlan.vni)
            | None -> Error "no vxlan header on the tunnel side")
          ()
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)

let () =
  Alcotest.run "vxlan"
    [
      ( "parser",
        [
          Alcotest.test_case "overlay offsets" `Quick test_overlay_parse;
          Alcotest.test_case "overlay pre-sfc too" `Quick
            test_overlay_parses_pre_sfc_too;
        ] );
      ( "decap",
        [
          Alcotest.test_case "normalizes" `Quick test_decap_normalizes;
          Alcotest.test_case "matches reference bytes" `Quick
            test_decap_matches_reference_bytes;
        ] );
      ( "encap",
        [
          Alcotest.test_case "builds tunnel" `Quick test_encap_builds_tunnel;
          Alcotest.test_case "misses other traffic" `Quick
            test_encap_misses_other_traffic;
          Alcotest.test_case "roundtrip" `Quick test_encap_decap_roundtrip;
        ] );
      ( "on_chip",
        [
          Alcotest.test_case "termination" `Quick test_tunnel_termination_on_chip;
          Alcotest.test_case "origination" `Quick test_tunnel_origination_on_chip;
        ] );
    ]
