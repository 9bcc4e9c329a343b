(* Placement study: walk through the paper's Fig. 6 example, then let
   every optimizer strategy loose on progressively harder policies (more
   chains, bigger chips) and compare the weighted recirculation counts.

   Run with: dune exec examples/placement_study.exe *)

open Dejavu_core

let ing p = { Asic.Pipelet.pipeline = p; kind = Asic.Pipelet.Ingress }
let eg p = { Asic.Pipelet.pipeline = p; kind = Asic.Pipelet.Egress }

let synthetic_input spec chains =
  {
    Placement.spec;
    switches = 1;
    resources_of =
      (fun _ -> { P4ir.Resources.zero with P4ir.Resources.stages = 2 });
    chains;
    entry_pipeline = 0;
    pinned = [];
  }

let () =
  Format.printf "== Part 1: the Fig. 6 walkthrough ==@.@.";
  let spec = Asic.Spec.wedge_100b in
  let chain = [ "A"; "B"; "C"; "D"; "E"; "F" ] in
  let show name layout =
    match Traversal.solve spec layout ~entry_pipeline:0 ~exit_port:1 chain with
    | None -> Format.printf "%-10s unroutable@." name
    | Some p -> Format.printf "%-10s %a@." name Traversal.pp_path p
  in
  show "fig6(a)"
    [
      (ing 0, [ Layout.Seq [ "A"; "B" ] ]);
      (eg 0, [ Layout.Seq [ "C" ] ]);
      (ing 1, [ Layout.Seq [ "D" ] ]);
      (eg 1, [ Layout.Seq [ "E"; "F" ] ]);
    ];
  show "fig6(b)"
    [
      (ing 0, [ Layout.Seq [ "A"; "B" ] ]);
      (eg 1, [ Layout.Seq [ "C" ] ]);
      (ing 1, [ Layout.Seq [ "D" ] ]);
      (eg 0, [ Layout.Seq [ "E"; "F" ] ]);
    ];

  Format.printf "@.== Part 2: strategies on multi-chain policies ==@.@.";
  let policies =
    [
      ( "single chain, 2 pipelines",
        Asic.Spec.wedge_100b,
        [ Chain.make ~path_id:1 ~name:"af" ~nfs:chain ~exit_port:1 () ] );
      ( "three overlapping chains, 2 pipelines",
        Asic.Spec.wedge_100b,
        [
          Chain.make ~path_id:1 ~name:"full" ~nfs:chain ~weight:0.5 ~exit_port:1 ();
          Chain.make ~path_id:2 ~name:"short"
            ~nfs:[ "A"; "C"; "F" ] ~weight:0.3 ~exit_port:1 ();
          Chain.make ~path_id:3 ~name:"reverse-ish"
            ~nfs:[ "A"; "D"; "B"; "F" ] ~weight:0.2 ~exit_port:1 ();
        ] );
      ( "three chains, 4 pipelines",
        Asic.Spec.tofino_4pipe,
        [
          Chain.make ~path_id:1 ~name:"full" ~nfs:chain ~weight:0.5 ~exit_port:1 ();
          Chain.make ~path_id:2 ~name:"short"
            ~nfs:[ "A"; "C"; "F" ] ~weight:0.3 ~exit_port:1 ();
          Chain.make ~path_id:3 ~name:"long"
            ~nfs:[ "A"; "B"; "C"; "D"; "E"; "F"; "G"; "H" ] ~weight:0.2
            ~exit_port:1 ();
        ] );
    ]
  in
  List.iter
    (fun (name, spec, chains) ->
      Format.printf "--- %s ---@." name;
      let inp = synthetic_input spec chains in
      let n_nfs = List.length (Chain.all_nfs chains) in
      let space =
        float_of_int (Asic.Spec.n_pipelets spec) ** float_of_int n_nfs
      in
      List.iter
        (fun (sname, strategy) ->
          if strategy = Placement.Exhaustive && space > 1e5 then
            Format.printf "  %-12s skipped (%.0f assignments)@." sname space
          else
          let t0 = Sys.time () in
          match Placement.solve inp strategy with
          | Error e -> Format.printf "  %-12s failed: %s@." sname e
          | Ok (layout, cost) ->
              Format.printf "  %-12s cost=%.3f (%.0f ms)@." sname cost
                ((Sys.time () -. t0) *. 1000.0);
              if cost > 0.0 then
                List.iter
                  (fun (c : Chain.t) ->
                    match
                      Traversal.solve spec layout ~entry_pipeline:0
                        ~exit_port:c.Chain.exit_port c.Chain.nfs
                    with
                    | Some p when p.Traversal.recircs + p.Traversal.resubmits > 0 ->
                        Format.printf "      %s: %d recircs, %d resubmits@."
                          c.Chain.name p.Traversal.recircs p.Traversal.resubmits
                    | _ -> ())
                  chains)
        [
          ("naive", Placement.Naive);
          ("greedy", Placement.Greedy);
          ("anneal", Placement.default_anneal);
          ("exhaustive", Placement.Exhaustive);
        ];
      Format.printf "@.")
    policies;

  Format.printf "== Part 3: parallel seeded restarts ==@.@.";
  (* One annealing run can get stuck in a local minimum; restarts from
     several seeds explore independently and keep the cheapest layout.
     The restarts run on an OCaml 5 domain pool, and the merge is
     deterministic: same seeds -> same winner, whatever the domain
     count or interleaving. *)
  let _, spec, chains = List.nth policies 2 in
  let inp = synthetic_input spec chains in
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  List.iter
    (fun domains ->
      let t0 = Sys.time () in
      match Placement.solve_parallel ~domains ~seeds inp with
      | Error e -> Format.printf "  %d domain(s): failed: %s@." domains e
      | Ok r ->
          Format.printf "  %d domain(s): best cost=%.3f (%.0f ms)  per seed:"
            domains r.Placement.cost
            ((Sys.time () -. t0) *. 1000.0);
          List.iter
            (fun (s : Placement.restart) ->
              match s.Placement.cost with
              | Some c -> Format.printf " %d->%.3f" s.Placement.seed c
              | None -> Format.printf " %d->infeasible" s.Placement.seed)
            r.Placement.restarts;
          Format.printf "@.")
    [ 1; 4 ]
