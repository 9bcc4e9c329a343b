(* Traversal tests, including the paper's Fig. 6 example: the naive
   placement of A-B-C-D-E-F costs 3 recirculations, the improved one
   costs 1. *)

open Dejavu_core

let check = Alcotest.check

let spec = Asic.Spec.wedge_100b
let ing p = { Asic.Pipelet.pipeline = p; kind = Asic.Pipelet.Ingress }
let eg p = { Asic.Pipelet.pipeline = p; kind = Asic.Pipelet.Egress }

let chain_af = [ "A"; "B"; "C"; "D"; "E"; "F" ]

(* Fig. 6(a): AB on ingress 0, C on egress 0, D on ingress 1, EF on
   egress 1; traffic exits on a port of egress 0. *)
let fig6a : Layout.t =
  [
    (ing 0, [ Layout.Seq [ "A"; "B" ] ]);
    (eg 0, [ Layout.Seq [ "C" ] ]);
    (ing 1, [ Layout.Seq [ "D" ] ]);
    (eg 1, [ Layout.Seq [ "E"; "F" ] ]);
  ]

(* Fig. 6(b): C and EF exchanged. *)
let fig6b : Layout.t =
  [
    (ing 0, [ Layout.Seq [ "A"; "B" ] ]);
    (eg 1, [ Layout.Seq [ "C" ] ]);
    (ing 1, [ Layout.Seq [ "D" ] ]);
    (eg 0, [ Layout.Seq [ "E"; "F" ] ]);
  ]

let solve layout =
  Traversal.solve spec layout ~entry_pipeline:0 ~exit_port:1 chain_af

let test_fig6a_three_recircs () =
  match solve fig6a with
  | None -> Alcotest.fail "fig6a unroutable"
  | Some path ->
      check Alcotest.int "three recirculations (paper Fig. 6a)" 3
        path.Traversal.recircs;
      check Alcotest.int "no resubmissions" 0 path.Traversal.resubmits

let test_fig6b_one_recirc () =
  match solve fig6b with
  | None -> Alcotest.fail "fig6b unroutable"
  | Some path ->
      check Alcotest.int "one recirculation (paper Fig. 6b)" 1
        path.Traversal.recircs

let test_fig6a_traversal_order () =
  (* Paper: Ing0 -> Eg0 -> Ing0 -> Eg1 -> Ing1 -> Eg1 -> Ing1 -> Eg0. *)
  match solve fig6a with
  | None -> Alcotest.fail "unroutable"
  | Some path ->
      let order =
        List.map
          (function
            | Traversal.Ingress_step { pipeline; _ } -> Printf.sprintf "I%d" pipeline
            | Traversal.Egress_step { pipeline; _ } -> Printf.sprintf "E%d" pipeline)
          path.Traversal.steps
      in
      check
        Alcotest.(list string)
        "pipelet order" [ "I0"; "E0"; "I0"; "E1"; "I1"; "E1"; "I1"; "E0" ] order

(* --- advance semantics --- *)

let test_advance_seq_in_order () =
  let layout = [ Layout.Seq [ "A"; "B"; "C" ] ] in
  check Alcotest.int "consumes the full prefix" 3
    (Traversal.advance layout [ "A"; "B"; "C" ] 0)

let test_advance_seq_out_of_order () =
  let layout = [ Layout.Seq [ "B"; "A" ] ] in
  (* Chain wants A then B, but the pipelet lays them B-then-A: only A is
     reachable in one pass. *)
  check Alcotest.int "stops at layout order violation" 1
    (Traversal.advance layout [ "A"; "B" ] 0)

let test_advance_par_one_per_pass () =
  let layout = [ Layout.Par [ "A"; "B" ] ] in
  check Alcotest.int "one branch per pass" 1 (Traversal.advance layout [ "A"; "B" ] 0);
  check Alcotest.int "second pass takes the other" 2
    (Traversal.advance layout [ "A"; "B" ] 1)

let test_advance_skips_foreign () =
  let layout = [ Layout.Seq [ "A"; "C" ] ] in
  (* B lives elsewhere: the pass stops at B even though C is present. *)
  check Alcotest.int "stops at unplaced NF" 1
    (Traversal.advance layout [ "A"; "B"; "C" ] 0)

let test_advance_mixed_groups () =
  let layout = [ Layout.Seq [ "A" ]; Layout.Par [ "B"; "C" ]; Layout.Seq [ "D" ] ] in
  (* A, then one of the Par group, then D. *)
  check Alcotest.int "seq-par-seq single pass" 3
    (Traversal.advance layout [ "A"; "B"; "D" ] 0);
  check Alcotest.int "par group limits consecutive members" 2
    (Traversal.advance layout [ "A"; "B"; "C"; "D" ] 0)

(* --- solver edge cases --- *)

let test_unplaced_nf_unroutable () =
  let layout = [ (ing 0, [ Layout.Seq [ "A" ] ]) ] in
  check Alcotest.bool "missing NF -> None" true
    (Traversal.solve spec layout ~entry_pipeline:0 ~exit_port:1 [ "A"; "Z" ] = None)

let test_empty_chain_trivial () =
  match Traversal.solve spec [] ~entry_pipeline:0 ~exit_port:1 [] with
  | None -> Alcotest.fail "empty chain should route"
  | Some path ->
      check Alcotest.int "no recircs" 0 path.Traversal.recircs;
      check Alcotest.int "two steps (ingress, emit)" 2
        (List.length path.Traversal.steps)

let test_exit_on_other_pipeline_costs_recirc () =
  (* NF on egress 1, but the chain must exit on pipeline 0: one recirc. *)
  let layout = [ (eg 1, [ Layout.Seq [ "A" ] ]) ] in
  match Traversal.solve spec layout ~entry_pipeline:0 ~exit_port:1 [ "A" ] with
  | None -> Alcotest.fail "unroutable"
  | Some path -> check Alcotest.int "one recirc to come back" 1 path.Traversal.recircs

let test_resubmission_used_for_par_groups () =
  (* A and B in a Par group on ingress 0; exit on pipeline 0. The
     cheapest plan is resubmit (0.9) rather than recirc (1.0). *)
  let layout = [ (ing 0, [ Layout.Par [ "A"; "B" ] ]) ] in
  match Traversal.solve spec layout ~entry_pipeline:0 ~exit_port:1 [ "A"; "B" ] with
  | None -> Alcotest.fail "unroutable"
  | Some path ->
      check Alcotest.int "one resubmission" 1 path.Traversal.resubmits;
      check Alcotest.int "no recirculation" 0 path.Traversal.recircs

let test_cost_weights_chains () =
  let mk_chain name path_id weight =
    Chain.make ~path_id ~name ~nfs:[ "A" ] ~weight ~exit_port:1 ()
  in
  (* A on egress 1 forces one recirc for every chain. *)
  let layout = [ (eg 1, [ Layout.Seq [ "A" ] ]) ] in
  match
    Traversal.cost spec layout ~entry_pipeline:0
      [ mk_chain "x" 1 0.75; mk_chain "y" 2 0.25 ]
  with
  | None -> Alcotest.fail "infeasible"
  | Some c -> check Alcotest.(float 1e-9) "weighted sum" 1.0 c

(* --- brute-force optimality --- *)

(* [switches] Wedge-100Bs chained back to back: one chip with every
   switch's pipelines, as [Cluster.chip] builds it. *)
let chip ~switches =
  { spec with Asic.Spec.n_pipelines = switches * spec.Asic.Spec.n_pipelines }

(* Enumerate every simple traversal by DFS (bounded depth) and confirm
   Dijkstra's answer is the minimum cost, on random small layouts over
   1-3 switches: the traffic manager reaches the egresses of the
   ingress's own switch, and an egress cables to the next switch's
   first pipeline at cost 100. *)
let brute_force_best ~switches layout chain ~exit_pipe =
  let n = (chip ~switches).Asic.Spec.n_pipelines in
  let per = n / switches in
  let k = List.length chain in
  let layout_of_loc = function
    | `I p -> Layout.layout_of layout (ing p)
    | `E p -> Layout.layout_of layout (eg p)
  in
  (* Every route crosses exit_pipe / per cables, two steps each, so the
     bound grows by those steps: a route the DFS misses then has
     2 * recircs + resubmits >= 12, so it costs at least 6000. *)
  let max_depth = 12 + (2 * (exit_pipe / per)) in
  let best = ref None in
  let update c = match !best with Some b when b <= c -> () | _ -> best := Some c in
  let rec dfs loc idx cost depth =
    if depth > max_depth then ()
    else
      let idx' = Traversal.advance (layout_of_loc loc) chain idx in
      match loc with
      | `I p ->
          let first = p / per * per in
          for q = first to first + per - 1 do
            dfs (`E q) idx' cost (depth + 1)
          done;
          if Traversal.advance (layout_of_loc (`I p)) chain idx' > idx' then
            dfs (`I p) idx' (cost + 900) (depth + 1)
      | `E q ->
          if q = exit_pipe && idx' = k then update cost;
          dfs (`I q) idx' (cost + 1000) (depth + 1);
          let next = ((q / per) + 1) * per in
          if next < n then dfs (`I next) idx' (cost + 100) (depth + 1)
  in
  dfs (`I 0) 0 0 0;
  !best

let path_cost p =
  (1000 * p.Traversal.recircs) + (900 * p.Traversal.resubmits)
  + (100 * p.Traversal.hops)

let prop_solver_is_optimal =
  QCheck.Test.make ~name:"dijkstra = brute force on random layouts" ~count:60
    QCheck.(triple (int_range 1 4) (int_bound 10000) (int_range 1 3))
    (fun (k, seed, switches) ->
      let st = Random.State.make [| seed |] in
      let chip = chip ~switches in
      let chain = List.init k (fun i -> Printf.sprintf "N%d" i) in
      (* Random placement over every pipelet, random group kinds. *)
      let pipelets = Array.of_list (Asic.Pipelet.all_ids chip) in
      let assignment =
        List.map
          (fun nf -> (nf, pipelets.(Random.State.int st (Array.length pipelets))))
          chain
      in
      let layout =
        List.filter_map
          (fun id ->
            let members =
              List.filter_map
                (fun (nf, i) -> if Asic.Pipelet.equal_id i id then Some nf else None)
                assignment
            in
            if members = [] then None
            else if Random.State.bool st then Some (id, [ Layout.Seq members ])
            else Some (id, [ Layout.Par members ]))
          (Array.to_list pipelets)
      in
      let exit_port = Random.State.int st (Asic.Spec.n_eth_ports chip) in
      let solver =
        Traversal.solve ~switches chip layout ~entry_pipeline:0 ~exit_port chain
      in
      let brute =
        brute_force_best ~switches layout chain
          ~exit_pipe:(Asic.Spec.port_pipeline chip exit_port)
      in
      match (solver, brute) with
      | None, None -> true
      | Some p, Some b -> path_cost p = b
      | Some p, None ->
          (* The DFS depth bound can miss very expensive routes the
             solver still finds; accept only such costly paths. *)
          path_cost p >= 6000
      | None, Some _ -> false)

(* --- heap solver vs reference oracle --- *)

(* Random single-placement layouts (each NF on at most one pipelet —
   the shape every placement strategy produces); some NFs stay unplaced
   to exercise the unroutable path. *)
let random_layout st pipelets chain =
  let n_choices = List.length pipelets in
  let assignment =
    List.filter_map
      (fun nf ->
        let roll = Random.State.int st (n_choices + 1) in
        if roll = n_choices then None else Some (nf, List.nth pipelets roll))
      chain
  in
  List.filter_map
    (fun id ->
      let members =
        List.filter_map
          (fun (nf, i) -> if Asic.Pipelet.equal_id i id then Some nf else None)
          assignment
      in
      if members = [] then None
      else if Random.State.bool st then Some (id, [ Layout.Seq members ])
      else Some (id, [ Layout.Par members ]))
    pipelets

(* On 1-3 switches of 2 or 4 pipelines each, entering and leaving
   anywhere. *)
let prop_fast_matches_reference =
  QCheck.Test.make ~name:"heap solve = reference solve (2 and 4 pipelines)"
    ~count:150
    QCheck.(quad (int_range 0 6) (int_bound 1_000_000) bool (int_range 1 3))
    (fun (k, seed, big, switches) ->
      let one = if big then Asic.Spec.tofino_4pipe else spec in
      let spec =
        { one with Asic.Spec.n_pipelines = switches * one.Asic.Spec.n_pipelines }
      in
      let st = Random.State.make [| seed |] in
      let chain = List.init k (fun i -> Printf.sprintf "N%d" i) in
      let layout = random_layout st (Asic.Pipelet.all_ids spec) chain in
      let entry_pipeline = Random.State.int st spec.Asic.Spec.n_pipelines in
      let exit_port = Random.State.int st (Asic.Spec.n_eth_ports spec) in
      let fast =
        Traversal.solve ~switches spec layout ~entry_pipeline ~exit_port chain
      in
      let oracle =
        Traversal.solve_reference ~switches spec layout ~entry_pipeline
          ~exit_port chain
      in
      match (fast, oracle) with
      | None, None -> true
      | Some f, Some o ->
          f.Traversal.recircs = o.Traversal.recircs
          && f.Traversal.resubmits = o.Traversal.resubmits
          && f.Traversal.hops = o.Traversal.hops
      | Some _, None | None, Some _ -> false)

(* --- coordinate index coherence --- *)

(* Layout.index, Layout.coord and the location/position pair all go
   through one scan; random layouts must agree across all of them. *)
let prop_index_matches_lookups =
  QCheck.Test.make ~name:"Layout.index = coord = location/position" ~count:100
    QCheck.(pair (int_range 0 8) (int_bound 1_000_000))
    (fun (k, seed) ->
      let st = Random.State.make [| seed |] in
      let nfs = List.init k (fun i -> Printf.sprintf "N%d" i) in
      let layout = random_layout st [ ing 0; eg 0; ing 1; eg 1 ] nfs in
      let idx = Layout.index layout in
      List.for_all
        (fun nf ->
          let via_index = Hashtbl.find_opt idx nf in
          let via_coord = Layout.coord layout nf in
          let via_pair =
            match Layout.location layout nf with
            | None -> None
            | Some id -> (
                let pl = Layout.layout_of layout id in
                match Layout.position pl nf with
                | None -> None
                | Some (g, s) ->
                    Some
                      {
                        Layout.pipelet = id;
                        group = g;
                        slot = s;
                        kind = Layout.group_kind pl g;
                      })
          in
          via_index = via_coord && via_coord = via_pair
          && (via_index <> None || not (List.mem nf (Layout.all_nfs layout))))
        nfs)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "traversal"
    [
      ( "fig6",
        [
          Alcotest.test_case "naive = 3 recircs" `Quick test_fig6a_three_recircs;
          Alcotest.test_case "optimized = 1 recirc" `Quick test_fig6b_one_recirc;
          Alcotest.test_case "traversal order" `Quick test_fig6a_traversal_order;
        ] );
      ( "advance",
        [
          Alcotest.test_case "seq in order" `Quick test_advance_seq_in_order;
          Alcotest.test_case "seq out of order" `Quick test_advance_seq_out_of_order;
          Alcotest.test_case "par one per pass" `Quick test_advance_par_one_per_pass;
          Alcotest.test_case "skips foreign" `Quick test_advance_skips_foreign;
          Alcotest.test_case "mixed groups" `Quick test_advance_mixed_groups;
        ] );
      ( "solver",
        [
          Alcotest.test_case "unplaced NF" `Quick test_unplaced_nf_unroutable;
          Alcotest.test_case "empty chain" `Quick test_empty_chain_trivial;
          Alcotest.test_case "exit elsewhere" `Quick
            test_exit_on_other_pipeline_costs_recirc;
          Alcotest.test_case "par needs resubmit" `Quick
            test_resubmission_used_for_par_groups;
          Alcotest.test_case "weighted cost" `Quick test_cost_weights_chains;
          qtest prop_solver_is_optimal;
        ] );
      ( "oracle",
        [ qtest prop_fast_matches_reference ] );
      ("coords", [ qtest prop_index_matches_lookups ]);
    ]
