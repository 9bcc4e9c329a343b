(* Multi-switch clusters (§7): traversal with inter-switch hops,
   placement of chains too big for one switch, and the latency model's
   hop accounting. A cluster is one widened chip routed by
   [Traversal.solve ~switches] and placed by [Placement]'s loop. *)

open Dejavu_core

let check = Alcotest.check

let spec = Asic.Spec.wedge_100b
let cluster n = Cluster.make ~spec ~n_switches:n ()

let ing c ~switch ~pipeline =
  Cluster.pipelet c ~switch ~pipeline ~kind:Asic.Pipelet.Ingress

let eg c ~switch ~pipeline =
  Cluster.pipelet c ~switch ~pipeline ~kind:Asic.Pipelet.Egress

(* Port 1 of switch [switch], pipeline 0 there. *)
let exit_port c ~switch = Cluster.port c ~switch ~port:1

let solve c layout ~exit_switch chain =
  Traversal.solve ~switches:c.Cluster.n_switches (Cluster.chip c) layout
    ~entry_pipeline:0 ~exit_port:(exit_port c ~switch:exit_switch) chain

let latency c p = Model.chain_latency_ns ~cable_m:c.Cluster.cable_m (Cluster.chip c) p

let test_addressing () =
  let c = cluster 3 in
  check Alcotest.int "global pipelines" 6 (Cluster.n_global_pipelines c);
  check Alcotest.int "chip pipelines" 6 (Cluster.chip c).Asic.Spec.n_pipelines;
  check Alcotest.int "switch of pipeline 3" 1 (Cluster.switch_of_pipeline c 3);
  check Alcotest.int "global id" 5
    (Cluster.global_pipeline c ~switch:2 ~pipeline:1);
  check Alcotest.int "global port" 65 (Cluster.port c ~switch:2 ~port:1);
  check Alcotest.int "its pipeline" 4
    (Asic.Spec.port_pipeline (Cluster.chip c) (Cluster.port c ~switch:2 ~port:1));
  Alcotest.check_raises "bad switch rejected"
    (Invalid_argument "Cluster.global_pipeline: bad switch") (fun () ->
      ignore (Cluster.global_pipeline c ~switch:3 ~pipeline:0))

let test_single_switch_matches_traversal () =
  (* A 1-switch cluster is the switch itself: same chip, same path. *)
  let c = cluster 1 in
  let chain = [ "A"; "B"; "C" ] in
  let layout =
    [
      (ing c ~switch:0 ~pipeline:0, [ Layout.Seq [ "A" ] ]);
      (eg c ~switch:0 ~pipeline:1, [ Layout.Seq [ "B" ] ]);
      (ing c ~switch:0 ~pipeline:1, [ Layout.Seq [ "C" ] ]);
    ]
  in
  check Alcotest.bool "chip = spec" true (Cluster.chip c = spec);
  let cluster_path = Option.get (solve c layout ~exit_switch:0 chain) in
  let single_path =
    Option.get (Traversal.solve spec layout ~entry_pipeline:0 ~exit_port:1 chain)
  in
  check Alcotest.bool "same path" true (cluster_path = single_path);
  check Alcotest.int "no hops on one switch" 0 cluster_path.Traversal.hops

let test_hop_replaces_recirculation () =
  (* A-B split so that on one switch it needs a recirc; on two switches
     the downstream NF can sit on the next switch and ride the cable. *)
  let chain = [ "A"; "B" ] in
  (* One switch: A on egress 0, B on ingress 0 -> recirc. *)
  let c1 = cluster 1 in
  let layout1 =
    [
      (eg c1 ~switch:0 ~pipeline:0, [ Layout.Seq [ "A" ] ]);
      (ing c1 ~switch:0 ~pipeline:0, [ Layout.Seq [ "B" ] ]);
    ]
  in
  let p1 = Option.get (solve c1 layout1 ~exit_switch:0 chain) in
  check Alcotest.int "one switch needs a recirc" 1 p1.Traversal.recircs;
  (* Two switches: A on switch 0's egress, B on switch 1. *)
  let c2 = cluster 2 in
  let layout2 =
    [
      (eg c2 ~switch:0 ~pipeline:0, [ Layout.Seq [ "A" ] ]);
      (ing c2 ~switch:1 ~pipeline:0, [ Layout.Seq [ "B" ] ]);
    ]
  in
  let p2 = Option.get (solve c2 layout2 ~exit_switch:1 chain) in
  check Alcotest.int "two switches: no recirc" 0 p2.Traversal.recircs;
  check Alcotest.int "one cable hop instead" 1 p2.Traversal.hops

let test_no_backward_hops () =
  (* An NF on switch 0 cannot be reached from switch 1 (unidirectional
     chain): placing the chain's tail upstream is unroutable. *)
  let c = cluster 2 in
  let layout =
    [
      (ing c ~switch:1 ~pipeline:0, [ Layout.Seq [ "A" ] ]);
      (ing c ~switch:0 ~pipeline:0, [ Layout.Seq [ "B" ] ]);
    ]
  in
  check Alcotest.bool "backward chain unroutable" true
    (solve c layout ~exit_switch:0 [ "A"; "B" ] = None)

let test_latency_accounts_for_hops () =
  let c = cluster 2 in
  let layout =
    [
      (eg c ~switch:0 ~pipeline:0, [ Layout.Seq [ "A" ] ]);
      (ing c ~switch:1 ~pipeline:0, [ Layout.Seq [ "B" ] ]);
    ]
  in
  let p = Option.get (solve c layout ~exit_switch:1 [ "A"; "B" ]) in
  let lat = latency c p in
  (* Two full switch transits plus the cable. *)
  check Alcotest.bool "more than one port-to-port" true
    (lat > Asic.Latency.port_to_port_ns spec);
  check Alcotest.bool "includes the off-chip hop" true
    (lat
    >= (2.0 *. Asic.Latency.port_to_port_ns spec)
       +. Asic.Latency.recirc_off_chip_ns spec ~cable_m:1.0
       -. (2.0 *. spec.Asic.Spec.lat.Asic.Spec.mac_serdes_ns)
       -. 1.0)

(* A5's chain: 16 NFs of 2 stages each. The forward fill packs two NFs
   per pipelet sequentially (2*2 + 2*2 + 1 = 9 of 12 stages; a third
   would need 13), so it needs 8 pipelets and one switch's 4 cannot hold
   it; four 4-NF Par groups can ([test_one_switch_costs_more]). *)
let big_chain = List.init 16 (fun i -> Printf.sprintf "N%02d" i)

let big_chains c ~exit_switch =
  [
    Chain.make ~path_id:1 ~name:"big" ~nfs:big_chain
      ~exit_port:(exit_port c ~switch:exit_switch) ();
  ]

let two_stage _ = { P4ir.Resources.zero with P4ir.Resources.stages = 2 }

let place_big c strategy =
  Cluster.place c ~resources_of:two_stage
    ~chains:(big_chains c ~exit_switch:(c.Cluster.n_switches - 1))
    ~pinned:[] strategy

let test_greedy_fill_places_big_chain () =
  let c = cluster 3 in
  match place_big c Cluster.Greedy_fill with
  | Error e -> Alcotest.fail e
  | Ok (layout, cost) ->
      check Alcotest.int "all NFs placed" 16 (List.length (Layout.all_nfs layout));
      (* Forward filling should need hops but few recirculations. *)
      let path = Option.get (solve c layout ~exit_switch:2 big_chain) in
      check Alcotest.int "uses both cables" 2 path.Traversal.hops;
      (* Forward fill still ping-pongs ingress/egress inside each switch
         (~2 recirculations per switch); the cables themselves are cheap. *)
      check Alcotest.bool
        (Printf.sprintf "cost %.2f bounded by intra-switch ping-pong" cost)
        true
        (cost < 5.0)

let test_anneal_not_worse_than_greedy () =
  let c = cluster 3 in
  let greedy = place_big c Cluster.Greedy_fill in
  let anneal = place_big c (Cluster.Anneal { iterations = 800; seed = 3 }) in
  match (greedy, anneal) with
  | Ok (_, g), Ok (_, a) ->
      check Alcotest.bool
        (Printf.sprintf "anneal (%.2f) <= greedy (%.2f) + eps" a g)
        true (a <= g +. 1e-9)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_forward_fill_refuses_one_switch () =
  (* The forward fill packs Seq only: 16 NFs need 8 pipelets, one
     switch has 4. *)
  check Alcotest.bool "forward fill refuses one switch" true
    (Result.is_error (place_big (cluster 1) Cluster.Greedy_fill))

let test_one_switch_costs_more () =
  (* The same chain does fit one Wedge-100B: Placement's greedy and
     annealer pack four 4-NF Par groups (2 + 4*2 + 1 = 11 of 12
     stages), at 9 recirculations and 4 resubmissions — more than the
     2-switch cluster's 5.00 ([test_a5_pinned]). *)
  let input =
    {
      Placement.spec;
      switches = 1;
      resources_of = two_stage;
      chains = big_chains (cluster 1) ~exit_switch:0;
      entry_pipeline = 0;
      pinned = [];
    }
  in
  List.iter
    (fun (name, strategy) ->
      match Placement.solve input strategy with
      | Error e -> Alcotest.fail (name ^ ": " ^ e)
      | Ok (layout, cost) ->
          check Alcotest.(float 1e-9) (name ^ ": cost") 12.6 cost;
          check Alcotest.bool (name ^ ": more than 2 switches' 5.00") true
            (cost > 5.0);
          let p =
            Option.get
              (Traversal.solve spec layout ~entry_pipeline:0 ~exit_port:1
                 big_chain)
          in
          check Alcotest.int (name ^ ": recircs") 9 p.Traversal.recircs;
          check Alcotest.int (name ^ ": resubmits") 4 p.Traversal.resubmits;
          check Alcotest.(float 1.0) (name ^ ": latency") 6831.0
            (Model.chain_latency_ns spec p))
    [
      ("greedy", Placement.Greedy);
      ("anneal", Placement.Anneal { iterations = 1500; seed = 7; initial_temp = 2.0 });
    ]

(* The cluster placements this repository prints, pinned: A5 (`bench
   ablation-cluster`) and `examples/multi_switch`. *)
let test_a5_pinned () =
  List.iter
    (fun (n, cost, hops, latency_ns) ->
      let c = cluster n in
      let name = Printf.sprintf "%d switches" n in
      match place_big c (Cluster.Anneal { iterations = 1500; seed = 7 }) with
      | Error e -> Alcotest.fail (name ^ ": " ^ e)
      | Ok (layout, got) ->
          check Alcotest.(float 1e-9) (name ^ ": cost") cost got;
          let p = Option.get (solve c layout ~exit_switch:(n - 1) big_chain) in
          check Alcotest.int (name ^ ": recircs") 4 p.Traversal.recircs;
          check Alcotest.int (name ^ ": hops") hops p.Traversal.hops;
          check Alcotest.(float 1.0) (name ^ ": latency") latency_ns (latency c p))
    [ (2, 5.0, 1, 3902.0); (3, 4.2, 2, 4356.0); (4, 4.3, 3, 5019.0) ];
  check Alcotest.bool "one switch: no placement" true
    (Result.is_error
       (place_big (cluster 1) (Cluster.Anneal { iterations = 1500; seed = 7 })))

let test_multi_switch_pinned () =
  let chain = List.init 12 (fun i -> Printf.sprintf "nf%02d" i) in
  let three_stage _ = { P4ir.Resources.zero with P4ir.Resources.stages = 3 } in
  List.iter
    (fun (n, cost) ->
      let c = cluster n in
      let chains =
        [
          Chain.make ~path_id:1 ~name:"deep" ~nfs:chain
            ~exit_port:(exit_port c ~switch:(n - 1)) ();
        ]
      in
      match
        Cluster.place c ~resources_of:three_stage ~chains ~pinned:[]
          (Cluster.Anneal { iterations = 2000; seed = 42 })
      with
      | Error e -> Alcotest.fail e
      | Ok (_, got) ->
          check Alcotest.(float 1e-9) (Printf.sprintf "%d switches: cost" n) cost got)
    [ (1, 5.8); (2, 2.1); (3, 2.2) ]

let () =
  Alcotest.run "cluster"
    [
      ( "topology",
        [
          Alcotest.test_case "addressing" `Quick test_addressing;
          Alcotest.test_case "1-switch = single" `Quick
            test_single_switch_matches_traversal;
          Alcotest.test_case "hop replaces recirc" `Quick
            test_hop_replaces_recirculation;
          Alcotest.test_case "no backward hops" `Quick test_no_backward_hops;
          Alcotest.test_case "hop latency" `Quick test_latency_accounts_for_hops;
        ] );
      ( "placement",
        [
          Alcotest.test_case "greedy fill" `Quick test_greedy_fill_places_big_chain;
          Alcotest.test_case "anneal >= greedy" `Quick
            test_anneal_not_worse_than_greedy;
          Alcotest.test_case "forward fill refuses one switch" `Quick
            test_forward_fill_refuses_one_switch;
          Alcotest.test_case "one switch costs 12.60" `Quick
            test_one_switch_costs_more;
          Alcotest.test_case "A5 pinned" `Quick test_a5_pinned;
          Alcotest.test_case "multi_switch pinned" `Quick test_multi_switch_pinned;
        ] );
    ]
