(* Placement optimizer tests: each strategy solves the Fig. 6 workload,
   heuristics are cross-validated against the exhaustive optimum, and
   resource feasibility is respected. *)

open Dejavu_core

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let spec = Asic.Spec.wedge_100b

(* Synthetic NFs with a controllable stage footprint. *)
let input ?(spec = spec) ?(switches = 1) ?(stages_per_nf = fun _ -> 1) ?(chains = [])
    ?(pinned = []) () =
  {
    Placement.spec;
    switches;
    resources_of =
      (fun nf -> { P4ir.Resources.zero with P4ir.Resources.stages = stages_per_nf nf });
    chains;
    entry_pipeline = 0;
    pinned;
  }

let chain_af ?(weight = 1.0) () =
  Chain.make ~path_id:1 ~name:"af" ~nfs:[ "A"; "B"; "C"; "D"; "E"; "F" ] ~weight
    ~exit_port:1 ()

let test_exhaustive_finds_zero_or_one () =
  (* Six 1-stage NFs on 4 pipelets: an optimal placement needs at most
     one recirculation (Fig. 6b quality or better). *)
  let inp = input ~chains:[ chain_af () ] () in
  match Placement.solve inp Placement.Exhaustive with
  | Error e -> Alcotest.fail e
  | Ok (_, cost) -> check Alcotest.bool "cost <= 1" true (cost <= 1.0)

let test_heuristics_close_to_exhaustive () =
  let inp = input ~chains:[ chain_af () ] () in
  let best =
    match Placement.solve inp Placement.Exhaustive with
    | Ok (_, c) -> c
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (name, strategy) ->
      match Placement.solve inp strategy with
      | Error e -> Alcotest.fail (name ^ ": " ^ e)
      | Ok (_, c) ->
          check Alcotest.bool
            (Printf.sprintf "%s within 1 recirc of optimum (%.2f vs %.2f)" name c
               best)
            true
            (c <= best +. 1.0))
    (* Naive is the paper's strawman and is allowed to be bad (Fig. 6a). *)
    [ ("greedy", Placement.Greedy); ("anneal", Placement.default_anneal) ]

let test_naive_not_better_than_exhaustive () =
  let inp = input ~chains:[ chain_af () ] () in
  let best = Result.get_ok (Placement.solve inp Placement.Exhaustive) in
  let naive = Result.get_ok (Placement.solve inp Placement.Naive) in
  check Alcotest.bool "exhaustive <= naive" true (snd best <= snd naive)

let test_pinning_respected () =
  let pin = { Asic.Pipelet.pipeline = 0; kind = Asic.Pipelet.Ingress } in
  let inp = input ~chains:[ chain_af () ] ~pinned:[ ("A", pin) ] () in
  List.iter
    (fun strategy ->
      match Placement.solve inp strategy with
      | Error e -> Alcotest.fail e
      | Ok (layout, _) ->
          check Alcotest.bool "A pinned to ingress 0" true
            (match Layout.location layout "A" with
            | Some id -> Asic.Pipelet.equal_id id pin
            | None -> false))
    [ Placement.Exhaustive; Placement.Greedy; Placement.default_anneal ]

let test_feasibility_respected () =
  (* Each NF needs 5 stages; with 2 framework stages each plus 1 fixed,
     two such NFs cannot share a 12-stage pipelet sequentially. *)
  let inp = input ~stages_per_nf:(fun _ -> 5) ~chains:[ chain_af () ] () in
  match Placement.solve inp Placement.Exhaustive with
  | Error _ -> Alcotest.fail "should still be placeable (one NF per pipelet won't fit 6; Par fallback)"
  | Ok (layout, _) ->
      check Alcotest.bool "layout feasible" true (Placement.feasible inp layout)

let test_infeasible_reported () =
  (* 13-stage NFs can never fit a 12-stage pipelet. *)
  let inp = input ~stages_per_nf:(fun _ -> 13) ~chains:[ chain_af () ] () in
  check Alcotest.bool "infeasible detected" true
    (Result.is_error (Placement.solve inp Placement.Exhaustive))

let test_build_layout_seq_to_par_fallback () =
  (* Two 5-stage NFs: Seq needs 5+5+2*2+1 = 15 > 12, Par needs
     max(5,5)+4+1 = 10 <= 12. *)
  let inp =
    input ~stages_per_nf:(fun _ -> 5)
      ~chains:[ Chain.make ~path_id:1 ~name:"c" ~nfs:[ "A"; "B" ] ~exit_port:1 () ]
      ()
  in
  let id = { Asic.Pipelet.pipeline = 0; kind = Asic.Pipelet.Ingress } in
  match Placement.build_layout inp [ ("A", id); ("B", id) ] with
  | None -> Alcotest.fail "expected a Par fallback"
  | Some layout -> (
      match Layout.layout_of layout id with
      | [ Layout.Par [ "A"; "B" ] ] -> ()
      | other ->
          Alcotest.fail
            (Format.asprintf "expected par group, got %a" Layout.pp_pipelet_layout
               other))

let test_naive_par_fallback () =
  (* Six 5-stage NFs round-robined over 4 pipelets: every co-located
     pair overflows Seq (5+5+2*2+1 = 15 > 12) but fits Par
     (max(5,5)+4+1 = 10 <= 12). The old naive fit check only tried Seq
     and spuriously reported "NFs do not fit". *)
  let inp = input ~stages_per_nf:(fun _ -> 5) ~chains:[ chain_af () ] () in
  match Placement.solve inp Placement.Naive with
  | Error e -> Alcotest.fail ("naive should place via the Par fallback: " ^ e)
  | Ok (layout, _) ->
      check Alcotest.bool "layout feasible" true (Placement.feasible inp layout)

let test_anneal_matches_reference_scorer () =
  (* Both annealing evaluators — the incremental move-diff ([Fast]) and
     the full rebuild with the oracle scorer ([Reference]) — must score
     candidates bit-identically, so per seed they walk the same
     accept/reject trajectory: same final layout, same cost. *)
  let inp = input ~chains:[ chain_af () ] () in
  let strategy =
    Placement.Anneal { iterations = 1000; seed = 7; initial_temp = 2.0 }
  in
  match
    ( Placement.solve inp strategy,
      Placement.solve ~scorer:Placement.Reference inp strategy )
  with
  | Ok (l1, c1), Ok (l2, c2) ->
      check Alcotest.(float 1e-12) "incremental = reference cost" c2 c1;
      check Alcotest.bool "incremental = reference layout" true (l1 = l2)
  | Error e, _ | _, Error e -> Alcotest.fail e

(* Property: an incrementally maintained diff — random move sequence,
   including rejected moves — always agrees with a from-scratch
   [build_layout] + score of the same assignment: identical layout,
   identical coordinate of every NF, identical cost. Run on 2-, 4- and
   8-pipeline switches so moves cross pipelines; 8 pipelines is where
   the move-diff memo's pipeline renaming merges the most placements.
   On two chained Wedge-100Bs, moves also cross the cable, and the
   chains leave on the second switch. *)
let prop_move_diff_matches_rebuild ?(switches = 1) (spec_name, spec) =
  let nfs = [ "A"; "B"; "C"; "D"; "E"; "F" ] in
  (* Ports 1 and 17 of the last switch. *)
  let last = (switches - 1) * (Asic.Spec.n_eth_ports spec / switches) in
  let chains =
    [
      Chain.make ~path_id:1 ~name:"full" ~nfs ~weight:0.5 ~exit_port:(last + 1) ();
      Chain.make ~path_id:2 ~name:"odd" ~nfs:[ "A"; "C"; "E" ] ~weight:0.3
        ~exit_port:(last + 17) ();
      Chain.make ~path_id:3 ~name:"even" ~nfs:[ "B"; "D"; "F" ] ~weight:0.2
        ~exit_port:(last + 1) ();
    ]
  in
  QCheck.Test.make
    ~name:(Printf.sprintf "move diff = rebuild (%s)" spec_name)
    ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let inp = input ~spec ~switches ~chains () in
      let ids = Array.of_list (Asic.Pipelet.all_ids spec) in
      let assignment =
        ref (List.mapi (fun i nf -> (nf, ids.(i mod Array.length ids))) nfs)
      in
      let d = Placement.diff_create inp !assignment in
      let ok = ref true in
      let expect name b = if not b then (ok := false; Printf.eprintf "move-diff mismatch: %s\n" name) in
      let check_state () =
        let rebuilt = Placement.build_layout inp !assignment in
        match (Placement.diff_layout d, rebuilt) with
        | Some dl, Some rl ->
            expect "layout" (dl = rl);
            expect "cost" (Placement.diff_cost d = Placement.evaluate inp rl);
            let fresh = Layout.index rl in
            expect "index size"
              (Hashtbl.length (Placement.diff_index d) = Hashtbl.length fresh);
            List.iter
              (fun nf ->
                expect "coord"
                  (Hashtbl.find_opt (Placement.diff_index d) nf
                  = Hashtbl.find_opt fresh nf))
              nfs
        | None, None -> ()
        | Some _, None | None, Some _ -> expect "feasibility" false
      in
      check_state ();
      for _ = 1 to 40 do
        let nf = List.nth nfs (Random.State.int st (List.length nfs)) in
        let src = List.assoc nf !assignment in
        let dst = ids.(Random.State.int st (Array.length ids)) in
        let moved =
          List.map
            (fun (f, id) -> if String.equal f nf then (f, dst) else (f, id))
            !assignment
        in
        (match Placement.diff_apply d { Placement.Move.nf; src; dst } with
        | `Applied cost ->
            assignment := moved;
            expect "applied cost"
              (Placement.diff_cost d = Some cost)
        | `Unfit ->
            (* The oracle must agree the moved assignment is unusable. *)
            expect "unfit agrees" (
              match Placement.build_layout inp moved with
              | None -> true
              | Some l -> Placement.evaluate inp l = None));
        check_state ()
      done;
      !ok)

let seeds = [ 3; 5; 9; 11 ]

let par_iterations = 800

let solve_seed inp seed =
  Placement.solve inp
    (Placement.Anneal { iterations = par_iterations; seed; initial_temp = 2.0 })

let test_parallel_single_domain_matches_sequential () =
  (* [solve_parallel ~domains:1] is sequential restarts: per-seed costs
     must equal the corresponding [solve] calls, and the winner must be
     the cheapest of them. *)
  let inp = input ~chains:[ chain_af () ] () in
  match
    Placement.solve_parallel ~iterations:par_iterations ~domains:1 ~seeds inp
  with
  | Error e -> Alcotest.fail e
  | Ok p ->
      check Alcotest.(list int) "restarts in seed order" seeds
        (List.map (fun r -> r.Placement.seed) p.Placement.restarts);
      List.iter2
        (fun seed (r : Placement.restart) ->
          match (solve_seed inp seed, r.Placement.cost) with
          | Ok (_, c), Some c' ->
              check Alcotest.(float 1e-12)
                (Printf.sprintf "seed %d cost" seed) c c'
          | Error _, None -> ()
          | Ok _, None | Error _, Some _ ->
              Alcotest.fail "restart outcome differs from sequential solve")
        seeds p.Placement.restarts;
      let best_seq =
        List.fold_left
          (fun acc seed ->
            match (acc, solve_seed inp seed) with
            | None, Ok lc -> Some lc
            | Some (_, bc), Ok (l, c) when c < bc -> Some (l, c)
            | _, _ -> acc)
          None seeds
      in
      (match best_seq with
      | Some (l, c) ->
          check Alcotest.(float 1e-12) "best cost" c p.Placement.cost;
          check Alcotest.bool "best layout" true (p.Placement.layout = l)
      | None -> Alcotest.fail "sequential solves all failed")

let test_parallel_domains_deterministic () =
  (* The merged result must not depend on the domain count or on which
     domain finishes first: 4 domains, 1 domain and a repeat run all
     agree exactly. *)
  let inp = input ~chains:[ chain_af () ] () in
  let run domains =
    match
      Placement.solve_parallel ~iterations:par_iterations ~domains ~seeds inp
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let p4 = run 4 and p4' = run 4 and p1 = run 1 in
  check Alcotest.bool "repeat run identical" true (p4 = p4');
  check Alcotest.bool "domain count irrelevant" true (p4 = p1);
  let min_cost =
    List.fold_left
      (fun acc (r : Placement.restart) ->
        match r.Placement.cost with Some c -> min acc c | None -> acc)
      infinity p4.Placement.restarts
  in
  check Alcotest.(float 1e-12) "winner is the min over seeds" min_cost
    p4.Placement.cost

let test_canonical_order_follows_chains () =
  (* lb-before-router ordering: the heavy chain visits B before A. *)
  let chains =
    [
      Chain.make ~path_id:1 ~name:"heavy" ~nfs:[ "B"; "A" ] ~weight:0.9
        ~exit_port:1 ();
      Chain.make ~path_id:2 ~name:"light" ~nfs:[ "A" ] ~weight:0.1 ~exit_port:1 ();
    ]
  in
  let inp = input ~chains () in
  let id = { Asic.Pipelet.pipeline = 0; kind = Asic.Pipelet.Ingress } in
  match Placement.build_layout inp [ ("A", id); ("B", id) ] with
  | None -> Alcotest.fail "should fit"
  | Some layout -> (
      match Layout.layout_of layout id with
      | [ Layout.Seq order ] ->
          check Alcotest.(list string) "chain precedence wins" [ "B"; "A" ] order
      | other ->
          Alcotest.fail
            (Format.asprintf "unexpected layout %a" Layout.pp_pipelet_layout other))

let test_multi_chain_tradeoff () =
  (* Two chains pulling the same NF different ways: the optimizer should
     favor the heavier one. *)
  let chains w1 w2 =
    [
      Chain.make ~path_id:1 ~name:"c1" ~nfs:[ "A"; "B" ] ~weight:w1 ~exit_port:1 ();
      Chain.make ~path_id:2 ~name:"c2" ~nfs:[ "B"; "A" ] ~weight:w2 ~exit_port:1 ();
    ]
  in
  let cost w1 w2 =
    let inp = input ~chains:(chains w1 w2) () in
    snd (Result.get_ok (Placement.solve inp Placement.Exhaustive))
  in
  (* Conflicting orders cannot both be free, but the cost must not
     exceed the lighter chain paying one transition. *)
  check Alcotest.bool "bounded by lighter chain" true (cost 0.9 0.1 <= 0.1 +. 1e-9);
  check Alcotest.bool "symmetric" true
    (abs_float (cost 0.9 0.1 -. cost 0.1 0.9) < 1e-9)

(* Property: on random small instances, greedy is never better than
   exhaustive (sanity of the exhaustive search) and both respect
   feasibility. *)
let prop_exhaustive_dominates_greedy =
  QCheck.Test.make ~name:"exhaustive <= greedy on random instances" ~count:25
    QCheck.(pair (int_range 2 4) (int_range 0 1000))
    (fun (n_nfs, seed) ->
      let st = Random.State.make [| seed |] in
      let nfs = List.init n_nfs (fun i -> Printf.sprintf "N%d" i) in
      let shuffled =
        List.sort (fun _ _ -> if Random.State.bool st then 1 else -1) nfs
      in
      let chains =
        [
          Chain.make ~path_id:1 ~name:"c1" ~nfs ~weight:0.6 ~exit_port:1 ();
          Chain.make ~path_id:2 ~name:"c2" ~nfs:shuffled ~weight:0.4 ~exit_port:17 ();
        ]
      in
      let inp = input ~chains () in
      match
        (Placement.solve inp Placement.Exhaustive, Placement.solve inp Placement.Greedy)
      with
      | Ok (_, best), Ok (_, greedy) -> best <= greedy +. 1e-9
      | Ok _, Error _ -> true (* greedy may fail where exhaustive succeeds *)
      | Error _, _ -> false)

let () =
  Alcotest.run "placement"
    [
      ( "strategies",
        [
          Alcotest.test_case "exhaustive quality" `Quick
            test_exhaustive_finds_zero_or_one;
          Alcotest.test_case "heuristics close" `Quick
            test_heuristics_close_to_exhaustive;
          Alcotest.test_case "exhaustive dominates naive" `Quick
            test_naive_not_better_than_exhaustive;
          Alcotest.test_case "pinning" `Quick test_pinning_respected;
          qtest prop_exhaustive_dominates_greedy;
        ] );
      ( "feasibility",
        [
          Alcotest.test_case "respected" `Quick test_feasibility_respected;
          Alcotest.test_case "infeasible reported" `Quick test_infeasible_reported;
          Alcotest.test_case "seq->par fallback" `Quick
            test_build_layout_seq_to_par_fallback;
          Alcotest.test_case "naive par fallback" `Quick test_naive_par_fallback;
        ] );
      ( "scorer",
        [
          Alcotest.test_case "anneal incremental = reference" `Quick
            test_anneal_matches_reference_scorer;
          qtest (prop_move_diff_matches_rebuild ("wedge_100b", Asic.Spec.wedge_100b));
          qtest (prop_move_diff_matches_rebuild ("tofino_4pipe", Asic.Spec.tofino_4pipe));
          qtest
            (prop_move_diff_matches_rebuild
               ( "tofino_8pipe",
                 {
                   Asic.Spec.tofino_4pipe with
                   Asic.Spec.name = "tofino-8pipe";
                   n_pipelines = 8;
                 } ));
          qtest
            (prop_move_diff_matches_rebuild ~switches:2
               ( "2 x wedge_100b",
                 { Asic.Spec.wedge_100b with Asic.Spec.n_pipelines = 4 } ));
        ] );
      ( "parallel",
        [
          Alcotest.test_case "domains:1 = sequential" `Quick
            test_parallel_single_domain_matches_sequential;
          Alcotest.test_case "deterministic across domains" `Quick
            test_parallel_domains_deterministic;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "canonical order" `Quick
            test_canonical_order_follows_chains;
          Alcotest.test_case "multi-chain tradeoff" `Quick test_multi_chain_tradeoff;
        ] );
    ]
