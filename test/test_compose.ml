(* Composition tests: the generated pipelet programs validate, carry the
   right framework tables, and execute the Fig. 5 gating semantics. *)

open Dejavu_core

(* The result-API install for tests: a failed install is a test bug. *)
let must_add t e =
  match P4ir.Table.add_entry t e with Ok () -> () | Error m -> Alcotest.fail m

let check = Alcotest.check

let spec = Asic.Spec.wedge_100b
let ing0 = { Asic.Pipelet.pipeline = 0; kind = Asic.Pipelet.Ingress }
let eg0 = { Asic.Pipelet.pipeline = 0; kind = Asic.Pipelet.Egress }

let registry = Nflib.Catalog.registry ()
let nf_of name = Nf.instantiate registry name

let generic_parser =
  let nfs =
    List.map
      (fun n -> (Result.get_ok (nf_of n)).Nf.parser)
      [ "classifier"; "fw"; "vgw"; "lb"; "router" ]
  in
  Result.get_ok
    (Parser_merge.merge ~name:"generic"
       (Net_hdrs.base_parser ~with_vlan:true ~name:"dejavu" () :: nfs))

let build id layout =
  Compose.build ~generic_parser ~id ~layout ~nf_of

let test_empty_ingress_has_branching () =
  match build ing0 [] with
  | Error e -> Alcotest.fail e
  | Ok b ->
      check Alcotest.(option string) "branching present" (Some "dv_branching")
        b.Compose.branching_table;
      check Alcotest.(list string) "only the branching table"
        [ "dv_branching" ] b.Compose.framework_tables;
      (match P4ir.Program.validate b.Compose.program with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

let test_empty_egress_has_strip_only () =
  match build eg0 [] with
  | Error e -> Alcotest.fail e
  | Ok b ->
      check Alcotest.(option string) "no branching at egress" None
        b.Compose.branching_table;
      check Alcotest.int "strip gateways counted" 3 b.Compose.framework_gateways

let test_seq_composition_structure () =
  match build ing0 [ Layout.Seq [ "fw"; "lb" ] ] with
  | Error e -> Alcotest.fail e
  | Ok b ->
      check Alcotest.(list (pair string string)) "check_next tables per NF"
        [ ("fw", "dv_check_next__fw"); ("lb", "dv_check_next__lb") ]
        b.Compose.check_next_of;
      let names = b.Compose.framework_tables in
      check Alcotest.bool "per-NF flags checks" true
        (List.mem "dv_check_flags__fw" names && List.mem "dv_check_flags__lb" names);
      (* NF tables are renamed into the composed namespace. *)
      check Alcotest.bool "fw table renamed" true
        (P4ir.Program.find_table b.Compose.program "fw__acl" <> None);
      check Alcotest.bool "lb table renamed" true
        (P4ir.Program.find_table b.Compose.program "lb__lb_session" <> None)

let test_par_composition_shares_flags () =
  match build ing0 [ Layout.Par [ "fw"; "lb" ] ] with
  | Error e -> Alcotest.fail e
  | Ok b ->
      let flags =
        List.filter
          (fun n -> String.length n > 15 && String.sub n 0 15 = "dv_check_flags_")
          b.Compose.framework_tables
      in
      check Alcotest.int "one shared flags check for the group" 1
        (List.length flags)

let test_classifier_in_par_group_supported () =
  match build ing0 [ Layout.Par [ "classifier"; "fw" ] ] with
  | Error e -> Alcotest.fail e
  | Ok b -> (
      match P4ir.Program.validate b.Compose.program with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

let test_programs_fit_the_pipelet () =
  (* The §5 layouts must stage-allocate on a Tofino-like pipelet. *)
  match build ing0 [ Layout.Seq [ "classifier"; "fw"; "vgw" ] ] with
  | Error e -> Alcotest.fail e
  | Ok b -> (
      match Asic.Pipelet.load spec ing0 b.Compose.program with
      | Error e -> Alcotest.fail e
      | Ok pl ->
          check Alcotest.bool "uses multiple stages (dependency chain)" true
            (Asic.Pipelet.stages_used pl > 1);
          check Alcotest.bool "fits the pipelet" true
            (Asic.Pipelet.stages_used pl <= spec.Asic.Spec.stages_per_pipelet))

(* Execute the gating semantics directly. *)
let exec_program (b : Compose.built) phv =
  P4ir.Program.exec_control b.Compose.program phv

let sfc_phv ~path ~index =
  let phv = P4ir.Phv.create [ Net_hdrs.eth ] in
  P4ir.Phv.set_valid phv "eth";
  Asic.Stdmeta.attach phv;
  Sfc_header.to_phv
    { Sfc_header.default with service_path_id = path; service_index = index }
    phv;
  (* Give the firewall and LB something to look at. *)
  P4ir.Phv.add_decl phv Net_hdrs.ipv4;
  P4ir.Phv.set_valid phv "ipv4";
  P4ir.Phv.add_decl phv Net_hdrs.tcp;
  P4ir.Phv.add_decl phv Net_hdrs.udp;
  phv

let install_check_next (b : Compose.built) nf entries =
  let table =
    Option.get
      (P4ir.Program.find_table b.Compose.program
         (List.assoc nf b.Compose.check_next_of))
  in
  List.iter
    (fun (path, idx) ->
      must_add table
        {
          P4ir.Table.priority = 0;
          patterns =
            [
              P4ir.Table.M_exact (P4ir.Bitval.of_int ~width:16 path);
              P4ir.Table.M_exact (P4ir.Bitval.of_int ~width:8 idx);
            ];
          action = Compose.proceed_action;
          args = [];
        })
    entries

let test_gate_proceeds_and_bumps () =
  let b = Result.get_ok (build ing0 [ Layout.Seq [ "fw" ] ]) in
  install_check_next b "fw" [ (7, 2) ];
  let phv = sfc_phv ~path:7 ~index:2 in
  exec_program b phv;
  check Alcotest.int "index bumped after the NF ran" 3
    (P4ir.Phv.get_int phv Sfc_header.service_index)

let test_gate_skips_other_paths () =
  let b = Result.get_ok (build ing0 [ Layout.Seq [ "fw" ] ]) in
  install_check_next b "fw" [ (7, 2) ];
  let phv = sfc_phv ~path:9 ~index:2 in
  exec_program b phv;
  check Alcotest.int "index untouched when the gate skips" 2
    (P4ir.Phv.get_int phv Sfc_header.service_index)

let test_no_bump_on_cpu_punt () =
  (* The LB misses (empty session table) and punts: the index must keep
     pointing at the LB. *)
  let b = Result.get_ok (build ing0 [ Layout.Seq [ "lb" ] ]) in
  install_check_next b "lb" [ (7, 0) ];
  let phv = sfc_phv ~path:7 ~index:0 in
  P4ir.Phv.add_decl phv Net_hdrs.tcp;
  P4ir.Phv.set_valid phv "tcp";
  P4ir.Phv.add_decl phv Nflib.Lb.meta_decl;
  exec_program b phv;
  check Alcotest.int "index not bumped" 0
    (P4ir.Phv.get_int phv Sfc_header.service_index);
  check Alcotest.int "to-CPU translated to platform metadata" 1
    (P4ir.Phv.get_int phv Asic.Stdmeta.to_cpu_flag)

let test_strip_restores_ethertype () =
  let b = Result.get_ok (build eg0 []) in
  let phv = sfc_phv ~path:7 ~index:5 in
  P4ir.Phv.set_int phv Sfc_header.out_port 4;
  P4ir.Phv.set_int phv Asic.Stdmeta.egress_port 4;
  P4ir.Phv.set_int phv Net_hdrs.eth_ethertype Net_hdrs.ethertype_sfc;
  exec_program b phv;
  check Alcotest.bool "sfc stripped" false (P4ir.Phv.is_valid phv "sfc");
  check Alcotest.int "ethertype restored" Net_hdrs.ethertype_ipv4
    (P4ir.Phv.get_int phv Net_hdrs.eth_ethertype)

let test_strip_skipped_mid_path () =
  let b = Result.get_ok (build eg0 []) in
  let phv = sfc_phv ~path:7 ~index:5 in
  (* out_port unset (0): the packet is still mid-chain. *)
  P4ir.Phv.set_int phv Asic.Stdmeta.egress_port 4;
  exec_program b phv;
  check Alcotest.bool "sfc kept mid-path" true (P4ir.Phv.is_valid phv "sfc")

let () =
  Alcotest.run "compose"
    [
      ( "structure",
        [
          Alcotest.test_case "empty ingress" `Quick test_empty_ingress_has_branching;
          Alcotest.test_case "empty egress" `Quick test_empty_egress_has_strip_only;
          Alcotest.test_case "seq structure" `Quick test_seq_composition_structure;
          Alcotest.test_case "par shares flags" `Quick
            test_par_composition_shares_flags;
          Alcotest.test_case "classifier in par" `Quick
            test_classifier_in_par_group_supported;
          Alcotest.test_case "fits pipelet" `Quick test_programs_fit_the_pipelet;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "proceed and bump" `Quick test_gate_proceeds_and_bumps;
          Alcotest.test_case "skip other paths" `Quick test_gate_skips_other_paths;
          Alcotest.test_case "no bump on punt" `Quick test_no_bump_on_cpu_punt;
          Alcotest.test_case "strip restores ethertype" `Quick
            test_strip_restores_ethertype;
          Alcotest.test_case "strip skipped mid-path" `Quick
            test_strip_skipped_mid_path;
        ] );
    ]
