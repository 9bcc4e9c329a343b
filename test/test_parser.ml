(* Parser graph tests: parsing real frames with the base topology,
   deparsing, validation errors. *)

open P4ir

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let base = Dejavu_core.Net_hdrs.base_parser ~with_vlan:true ~name:"test" ()

let mac = Netpkt.Mac.of_string_exn
let ip = Netpkt.Ip4.of_string_exn

let tuple =
  {
    Netpkt.Flow.src = ip "192.0.2.10";
    dst = ip "10.0.1.20";
    proto = Netpkt.Ipv4.proto_tcp;
    src_port = 4000;
    dst_port = 80;
  }

let plain_frame ?(payload = "") () =
  Netpkt.Pkt.encode
    (Netpkt.Pkt.tcp_flow ~payload ~src_mac:(mac "02:00:00:00:00:01")
       ~dst_mac:(mac "02:00:00:00:00:02") tuple)

let test_base_parser_validates () =
  match Parser_graph.validate base with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_parse_plain_tcp () =
  let phv = Phv.create [] in
  match Parser_graph.parse base (plain_frame ()) phv with
  | Error e -> Alcotest.fail e
  | Ok consumed ->
      check Alcotest.int "eth+ip+tcp consumed" 54 consumed;
      check Alcotest.bool "eth valid" true (Phv.is_valid phv "eth");
      check Alcotest.bool "ipv4 valid" true (Phv.is_valid phv "ipv4");
      check Alcotest.bool "tcp valid" true (Phv.is_valid phv "tcp");
      check Alcotest.bool "udp invalid" false (Phv.is_valid phv "udp");
      check Alcotest.bool "sfc invalid" false (Phv.is_valid phv "sfc");
      check Alcotest.int "dst ip extracted" 0x0A000114
        (Phv.get_int phv Dejavu_core.Net_hdrs.ip_dst);
      check Alcotest.int "dst port extracted" 80
        (Phv.get_int phv Dejavu_core.Net_hdrs.tcp_dport)

let test_parse_sfc_frame () =
  let sfc =
    { Dejavu_core.Sfc_header.default with service_path_id = 10; service_index = 2 }
  in
  let frame =
    Netpkt.Pkt.encode
      ([
         Netpkt.Pkt.Eth
           (Netpkt.Eth.make ~dst:(mac "02:00:00:00:00:02")
              Netpkt.Eth.ethertype_sfc);
         Netpkt.Pkt.Sfc_raw (Dejavu_core.Sfc_header.encode sfc);
       ]
      @ List.tl
          (Netpkt.Pkt.tcp_flow ~src_mac:(mac "02:00:00:00:00:01")
             ~dst_mac:(mac "02:00:00:00:00:02") tuple))
  in
  let phv = Phv.create [] in
  match Parser_graph.parse base frame phv with
  | Error e -> Alcotest.fail e
  | Ok consumed ->
      check Alcotest.int "eth+sfc+ip+tcp" 74 consumed;
      check Alcotest.bool "sfc valid" true (Phv.is_valid phv "sfc");
      check Alcotest.int "path id" 10
        (Phv.get_int phv Dejavu_core.Sfc_header.service_path_id);
      check Alcotest.bool "tcp under sfc" true (Phv.is_valid phv "tcp")

let test_parse_unknown_ethertype_accepts () =
  let b = plain_frame () in
  Netpkt.Bytes_util.set_uint16 b 12 0x9999;
  let phv = Phv.create [] in
  match Parser_graph.parse base b phv with
  | Error e -> Alcotest.fail e
  | Ok consumed ->
      check Alcotest.int "only eth consumed" 14 consumed;
      check Alcotest.bool "ipv4 not parsed" false (Phv.is_valid phv "ipv4")

let test_parse_truncated_fails () =
  let b = Bytes.sub (plain_frame ()) 0 20 in
  let phv = Phv.create [] in
  check Alcotest.bool "truncated ipv4 rejected" true
    (Result.is_error (Parser_graph.parse base b phv))

let test_parse_deparse_roundtrip () =
  let frame = plain_frame ~payload:"abcdef" () in
  let phv = Phv.create [] in
  match Parser_graph.parse base frame phv with
  | Error e -> Alcotest.fail e
  | Ok consumed ->
      let payload = Bytes.sub frame consumed (Bytes.length frame - consumed) in
      let out =
        Parser_graph.deparse ~order:Dejavu_core.Net_hdrs.deparse_order phv ~payload
      in
      check Alcotest.bytes "deparse inverts parse" frame out

let prop_parse_deparse_roundtrip =
  let st = Random.State.make [| 4 |] in
  QCheck.Test.make ~name:"parse/deparse roundtrip on random flows" ~count:150
    QCheck.unit (fun () ->
      let tuple = Netpkt.Flow.random_tuple st in
      let frame =
        Netpkt.Pkt.encode
          (Netpkt.Pkt.tcp_flow ~payload:"xyz" ~src_mac:(Netpkt.Mac.random st)
             ~dst_mac:(Netpkt.Mac.random st) tuple)
      in
      let phv = Phv.create [] in
      match Parser_graph.parse base frame phv with
      | Error _ -> false
      | Ok consumed ->
          let payload = Bytes.sub frame consumed (Bytes.length frame - consumed) in
          Bytes.equal frame
            (Parser_graph.deparse ~order:Dejavu_core.Net_hdrs.deparse_order phv
               ~payload))

let test_validate_catches_bad_target () =
  let bad =
    {
      Parser_graph.name = "bad";
      decls = [ Dejavu_core.Net_hdrs.eth ];
      start = Parser_graph.Goto "eth@0";
      states =
        [
          {
            Parser_graph.id = "eth@0";
            header = "eth";
            offset = 0;
            select =
              Some
                {
                  Parser_graph.on = [ Dejavu_core.Net_hdrs.eth_ethertype ];
                  cases =
                    [ { Parser_graph.values = [ 1L ]; next = Parser_graph.Goto "ghost" } ];
                  default = Parser_graph.Accept;
                };
          };
        ];
    }
  in
  check Alcotest.bool "missing target detected" true
    (Result.is_error (Parser_graph.validate bad))

let test_validate_catches_bad_offset () =
  let bad =
    {
      Parser_graph.name = "bad";
      decls = [ Dejavu_core.Net_hdrs.eth; Dejavu_core.Net_hdrs.ipv4 ];
      start = Parser_graph.Goto "eth@0";
      states =
        [
          {
            Parser_graph.id = "eth@0";
            header = "eth";
            offset = 0;
            select =
              Some
                {
                  Parser_graph.on = [ Dejavu_core.Net_hdrs.eth_ethertype ];
                  cases =
                    [
                      {
                        Parser_graph.values = [ 0x0800L ];
                        next = Parser_graph.Goto "ipv4@20";
                      };
                    ];
                  default = Parser_graph.Accept;
                };
          };
          (* Wrong: eth is 14 bytes, so ipv4 must start at 14. *)
          { Parser_graph.id = "ipv4@20"; header = "ipv4"; offset = 20; select = None };
        ];
    }
  in
  check Alcotest.bool "offset mismatch detected" true
    (Result.is_error (Parser_graph.validate bad))

let test_reachable () =
  let ids = Parser_graph.reachable base in
  check Alcotest.bool "eth first" true (List.hd ids = "eth@0");
  check Alcotest.bool "sfc reachable" true (List.mem "sfc@14" ids);
  check Alcotest.bool "vlan-under-sfc reachable" true (List.mem "vlan@34" ids)

let test_deparse_skips_invalid () =
  let phv = Phv.create [ Dejavu_core.Net_hdrs.eth; Dejavu_core.Net_hdrs.ipv4 ] in
  Phv.set_valid phv "eth";
  let out =
    Parser_graph.deparse ~order:[ "eth"; "ipv4" ] phv ~payload:Bytes.empty
  in
  check Alcotest.int "only eth emitted" 14 (Bytes.length out)

(* Replay predicts, from cells alone, what parsing the deparsed frame
   extracts: it follows selects on the header just extracted, needs the
   walk to visit exactly the emitted headers, and refuses a select that
   reads another header (whose parsed value need not be its cell's). *)
let test_replay () =
  let a = Hdr.decl "a" [ ("kind", 8) ] and b = Hdr.decl "b" [ ("x", 8) ] in
  let kind = Fieldref.v "a" "kind" in
  let graph on =
    {
      Parser_graph.name = "ab";
      decls = [ a; b ];
      start = Parser_graph.Goto "a@0";
      states =
        [
          {
            Parser_graph.id = "a@0";
            header = "a";
            offset = 0;
            select =
              Some
                {
                  Parser_graph.on = [ kind ];
                  cases = [ { Parser_graph.values = [ 1L ]; next = Parser_graph.Goto "b@1" } ];
                  default = Parser_graph.Accept;
                };
          };
          {
            Parser_graph.id = "b@1";
            header = "b";
            offset = 1;
            select = Some { Parser_graph.on = [ on ]; cases = []; default = Parser_graph.Accept };
          };
        ];
    }
  in
  let lay = Phv.layout_of [ a; b ] in
  let order = [| Phv.valid_cell lay "a"; Phv.valid_cell lay "b" |] in
  let replay ?(on = Fieldref.v "b" "x") ?(phv = Phv.of_layout lay) ~k ~b_valid () =
    Phv.set_valid phv "a";
    Phv.set_int phv kind k;
    if b_valid then Phv.set_valid phv "b";
    Parser_graph.replay (Parser_graph.compile ~layout:lay (graph on)) phv ~order
  in
  check Alcotest.bool "a then b" true (replay ~k:1 ~b_valid:true ());
  check Alcotest.bool "a alone" true (replay ~k:2 ~b_valid:false ());
  check Alcotest.bool "b emitted, not reached" false (replay ~k:2 ~b_valid:true ());
  check Alcotest.bool "b reached, not emitted" false (replay ~k:1 ~b_valid:false ());
  check Alcotest.bool "select on another header" false
    (replay ~on:kind ~k:1 ~b_valid:true ());
  check Alcotest.bool "PHV of another layout" false
    (replay ~phv:(Phv.create [ a; b ]) ~k:1 ~b_valid:true ())

let () =
  Alcotest.run "parser_graph"
    [
      ( "parse",
        [
          Alcotest.test_case "base validates" `Quick test_base_parser_validates;
          Alcotest.test_case "plain tcp" `Quick test_parse_plain_tcp;
          Alcotest.test_case "sfc frame" `Quick test_parse_sfc_frame;
          Alcotest.test_case "unknown ethertype accepts" `Quick
            test_parse_unknown_ethertype_accepts;
          Alcotest.test_case "truncated fails" `Quick test_parse_truncated_fails;
        ] );
      ( "deparse",
        [
          Alcotest.test_case "roundtrip" `Quick test_parse_deparse_roundtrip;
          qtest prop_parse_deparse_roundtrip;
          Alcotest.test_case "skips invalid" `Quick test_deparse_skips_invalid;
        ] );
      ( "validate",
        [
          Alcotest.test_case "bad target" `Quick test_validate_catches_bad_target;
          Alcotest.test_case "bad offset" `Quick test_validate_catches_bad_offset;
          Alcotest.test_case "reachable" `Quick test_reachable;
        ] );
      ("replay", [ Alcotest.test_case "cells predict the parse" `Quick test_replay ]);
    ]
