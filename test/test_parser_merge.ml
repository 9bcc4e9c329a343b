(* Generic-parser merging tests (§3): vertex unification by
   (header_type, offset), select union, conflict detection. *)

open Dejavu_core
open P4ir

let check = Alcotest.check

let p_plain = Net_hdrs.base_parser ~name:"plain" ()
let p_vlan = Net_hdrs.base_parser ~with_vlan:true ~name:"vlan" ()
let p_nol4 = Net_hdrs.base_parser ~with_l4:false ~name:"nol4" ()

let n_states (p : Parser_graph.t) = List.length p.Parser_graph.states

let test_merge_self_idempotent () =
  match Parser_merge.merge ~name:"m" [ p_plain; p_plain ] with
  | Error c -> Alcotest.fail (Parser_merge.conflict_message c)
  | Ok merged ->
      check Alcotest.int "same vertex count as one copy" (n_states p_plain)
        (n_states merged);
      (match Parser_graph.validate merged with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

let test_merge_adds_vlan_branches () =
  match Parser_merge.merge ~name:"m" [ p_plain; p_vlan ] with
  | Error c -> Alcotest.fail (Parser_merge.conflict_message c)
  | Ok merged ->
      check Alcotest.bool "more vertices than the plain parser" true
        (n_states merged > n_states p_plain);
      check Alcotest.bool "vlan@14 present" true
        (Parser_graph.find_state merged "vlan@14" <> None);
      check Alcotest.bool "vlan@34 (under sfc) present" true
        (Parser_graph.find_state merged "vlan@34" <> None);
      (match Parser_graph.validate merged with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

let test_merge_goto_beats_accept () =
  (* nol4's ipv4 vertices accept; plain's continue to tcp/udp. The merge
     must keep the continuation. *)
  match Parser_merge.merge ~name:"m" [ p_nol4; p_plain ] with
  | Error c -> Alcotest.fail (Parser_merge.conflict_message c)
  | Ok merged -> (
      match Parser_graph.find_state merged "ipv4@14" with
      | None -> Alcotest.fail "ipv4@14 missing"
      | Some s ->
          check Alcotest.bool "ipv4 continues to transport" true
            (s.Parser_graph.select <> None))

let test_merged_parses_both_shapes () =
  let merged =
    Result.get_ok (Parser_merge.merge ~name:"m" [ p_plain; p_vlan ])
  in
  let mac = Netpkt.Mac.of_string_exn "02:00:00:00:00:01" in
  let tuple =
    {
      Netpkt.Flow.src = Netpkt.Ip4.of_string_exn "192.0.2.1";
      dst = Netpkt.Ip4.of_string_exn "10.0.0.1";
      proto = Netpkt.Ipv4.proto_udp;
      src_port = 53;
      dst_port = 53;
    }
  in
  let plain_pkt = Netpkt.Pkt.tcp_flow ~src_mac:mac ~dst_mac:mac tuple in
  let vlan_pkt =
    match plain_pkt with
    | Netpkt.Pkt.Eth e :: rest ->
        Netpkt.Pkt.Eth { e with Netpkt.Eth.ethertype = Netpkt.Eth.ethertype_vlan }
        :: Netpkt.Pkt.Vlan (Netpkt.Vlan.make ~vid:7 Netpkt.Eth.ethertype_ipv4)
        :: rest
    | _ -> assert false
  in
  List.iter
    (fun (label, pkt, expect_vlan) ->
      let phv = Phv.create [] in
      match Parser_graph.parse merged (Netpkt.Pkt.encode pkt) phv with
      | Error e -> Alcotest.fail (label ^ ": " ^ e)
      | Ok _ ->
          check Alcotest.bool (label ^ ": udp parsed") true (Phv.is_valid phv "udp");
          check Alcotest.bool (label ^ ": vlan validity") expect_vlan
            (Phv.is_valid phv "vlan"))
    [ ("plain", plain_pkt, false); ("vlan", vlan_pkt, true) ]

let test_global_id_table () =
  let table = Parser_merge.global_id_table [ p_plain; p_vlan ] in
  check Alcotest.(option string) "eth@0" (Some "eth@0")
    (List.assoc_opt ("eth", 0) table);
  check Alcotest.(option string) "ipv4 under sfc" (Some "ipv4@34")
    (List.assoc_opt ("ipv4", 34) table);
  (* The table must be small (the paper's argument for feasibility). *)
  check Alcotest.bool "table is small" true (List.length table < 32)

let test_decl_conflict_detected () =
  let bogus_eth = Hdr.decl "eth" [ ("everything", 48) ] in
  let bad =
    {
      Parser_graph.name = "bad";
      decls = [ bogus_eth ];
      start = Parser_graph.Goto "eth@0";
      states = [ { Parser_graph.id = "eth@0"; header = "eth"; offset = 0; select = None } ];
    }
  in
  match Parser_merge.merge ~name:"m" [ p_plain; bad ] with
  | Error (Parser_merge.Decl_mismatch "eth") -> ()
  | Error c -> Alcotest.fail (Parser_merge.conflict_message c)
  | Ok _ -> Alcotest.fail "decl conflict not detected"

let test_case_target_conflict_detected () =
  (* Same vertex, same select value, different successors. *)
  let mk target =
    {
      Parser_graph.name = "p";
      decls = [ Net_hdrs.eth; Net_hdrs.ipv4; Sfc_header.decl ];
      start = Parser_graph.Goto "e";
      states =
        [
          {
            Parser_graph.id = "e";
            header = "eth";
            offset = 0;
            select =
              Some
                {
                  Parser_graph.on = [ Net_hdrs.eth_ethertype ];
                  cases = [ { Parser_graph.values = [ 0x0800L ]; next = Parser_graph.Goto target } ];
                  default = Parser_graph.Accept;
                };
          };
          { Parser_graph.id = "i"; header = "ipv4"; offset = 14; select = None };
          { Parser_graph.id = "s"; header = "sfc"; offset = 14; select = None };
        ];
    }
  in
  match Parser_merge.merge ~name:"m" [ mk "i"; mk "s" ] with
  | Error (Parser_merge.Case_target _) -> ()
  | Error c -> Alcotest.fail (Parser_merge.conflict_message c)
  | Ok _ -> Alcotest.fail "case target conflict not detected"

let test_select_fields_conflict_detected () =
  let mk on =
    {
      Parser_graph.name = "p";
      decls = [ Net_hdrs.eth ];
      start = Parser_graph.Goto "e";
      states =
        [
          {
            Parser_graph.id = "e";
            header = "eth";
            offset = 0;
            select =
              Some
                { Parser_graph.on = [ on ]; cases = []; default = Parser_graph.Accept };
          };
        ];
    }
  in
  match
    Parser_merge.merge ~name:"m"
      [ mk Net_hdrs.eth_ethertype; mk Net_hdrs.eth_src ]
  with
  | Error (Parser_merge.Select_fields _) -> ()
  | Error c -> Alcotest.fail (Parser_merge.conflict_message c)
  | Ok _ -> Alcotest.fail "select-fields conflict not detected"

let test_merge_order_irrelevant_for_acceptance () =
  let a = Result.get_ok (Parser_merge.merge ~name:"a" [ p_plain; p_vlan; p_nol4 ]) in
  let b = Result.get_ok (Parser_merge.merge ~name:"b" [ p_nol4; p_vlan; p_plain ]) in
  check Alcotest.int "same vertex count" (n_states a) (n_states b);
  let sort p =
    List.sort compare
      (List.map (fun (s : Parser_graph.state) -> s.Parser_graph.id) p.Parser_graph.states)
  in
  check Alcotest.(list string) "same vertex ids" (sort a) (sort b)

let () =
  Alcotest.run "parser_merge"
    [
      ( "merge",
        [
          Alcotest.test_case "idempotent" `Quick test_merge_self_idempotent;
          Alcotest.test_case "adds vlan branches" `Quick test_merge_adds_vlan_branches;
          Alcotest.test_case "goto beats accept" `Quick test_merge_goto_beats_accept;
          Alcotest.test_case "parses both shapes" `Quick test_merged_parses_both_shapes;
          Alcotest.test_case "global id table" `Quick test_global_id_table;
          Alcotest.test_case "order irrelevant" `Quick
            test_merge_order_irrelevant_for_acceptance;
        ] );
      ( "conflicts",
        [
          Alcotest.test_case "decl mismatch" `Quick test_decl_conflict_detected;
          Alcotest.test_case "case target" `Quick test_case_target_conflict_detected;
          Alcotest.test_case "select fields" `Quick
            test_select_fields_conflict_detected;
        ] );
    ]
