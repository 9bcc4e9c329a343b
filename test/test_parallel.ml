(* The sharded data plane: process_batch_parallel must be
   indistinguishable from sequential process_batch — digest-identical
   at domains:1, and per-packet-equivalent for any shard count on
   workloads that respect flow affinity (including stateful NFs: the
   LB session table, static NAT, the per-tenant rate limiter and the
   per-source DDoS sketch). *)

open Dejavu_core

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let ip = Netpkt.Ip4.of_string_exn
let pfx = Netpkt.Ip4.prefix_of_string_exn

(* A deployment that exercises every kind of runtime state: the red
   chain (LB punts to the CPU and installs per-flow sessions), the
   protected chain (count-min sketch per source + per-tenant packet
   budget), and a NAT chain (static per-source rewrite). *)
let classifier_rules =
  [
    { Nflib.Classifier.dst_prefix = pfx "10.0.1.0/24"; proto = None; path_id = 10; tenant = 1 };
    { Nflib.Classifier.dst_prefix = pfx "10.0.5.0/24"; proto = None; path_id = 50; tenant = 5 };
    { Nflib.Classifier.dst_prefix = pfx "10.0.6.0/24"; proto = None; path_id = 60; tenant = 6 };
  ]

let chains =
  [
    Chain.make ~path_id:10 ~name:"red"
      ~nfs:[ "classifier"; "fw"; "vgw"; "lb"; "router" ]
      ~weight:0.4 ~exit_port:1 ();
    Chain.make ~path_id:50 ~name:"protected"
      ~nfs:[ "classifier"; "ddos_sketch"; "rate_limiter"; "router" ]
      ~weight:0.3 ~exit_port:1 ();
    Chain.make ~path_id:60 ~name:"natted"
      ~nfs:[ "classifier"; "nat"; "router" ]
      ~weight:0.3 ~exit_port:1 ();
  ]

let registry () =
  ("classifier", Nflib.Classifier.create classifier_rules)
  :: List.remove_assoc "classifier" (Nflib.Catalog.registry ())

let compile () =
  Result.get_ok
    (Compiler.compile
       (Compiler.default_input ~registry:(registry ()) ~chains
          ~strategy:Placement.Greedy ()))

let runtime ?engine () =
  let compiled = compile () in
  let rt = Runtime.create ?engine compiled in
  Nflib.Catalog.attach_handlers rt compiled;
  rt

let tcp ~src ~dst ~src_port ~dst_port =
  Netpkt.Pkt.encode
    (Netpkt.Pkt.tcp_flow
       ~src_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:01")
       ~dst_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:02")
       {
         Netpkt.Flow.src;
         dst;
         proto = Netpkt.Ipv4.proto_tcp;
         src_port;
         dst_port;
       })

(* Random workloads under the flow-affinity contract: cross-flow state
   must stay within one flow. The rate-limited tenant (5) and the
   sketch-counted sources therefore each send exactly one 5-tuple flow;
   LB sessions and NAT bindings are per-flow / per-source lookups and
   can spread over many flows freely. *)
let random_workload st n =
  List.init n (fun _ ->
      let frame =
        match Random.State.int st 5 with
        | 0 ->
            (* red: per-flow LB sessions, any number of flows *)
            tcp
              ~src:(Netpkt.Ip4.of_octets 203 0 113 (1 + Random.State.int st 40))
              ~dst:(ip "10.0.1.10")
              ~src_port:(2000 + Random.State.int st 50)
              ~dst_port:80
        | 1 ->
            (* protected: tenant 5 is rate-limited as a unit, so all its
               traffic is one flow (budget 8: later packets drop) *)
            tcp ~src:(ip "203.0.113.50") ~dst:(ip "10.0.5.7") ~src_port:1234
              ~dst_port:80
        | 2 ->
            (* natted: static per-source rewrite *)
            tcp
              ~src:
                (if Random.State.bool st then ip "192.168.0.10"
                 else ip "192.168.0.11")
              ~dst:(Netpkt.Ip4.of_octets 10 0 6 (1 + Random.State.int st 30))
              ~src_port:(3000 + Random.State.int st 100)
              ~dst_port:443
        | 3 ->
            (* unclassified: classifier default punts to the CPU *)
            tcp ~src:(ip "198.18.0.9") ~dst:(ip "192.0.2.77")
              ~src_port:(4000 + Random.State.int st 100)
              ~dst_port:80
        | _ ->
            (* unparseable frame: shards by in_port, errors either way *)
            Bytes.make (1 + Random.State.int st 8) '\x2a'
      in
      (Random.State.int st 4, frame))

let signature_of = function
  | Error e -> "error:" ^ e
  | Ok (o : Runtime.outcome) -> (
      match o.Runtime.verdict with
      | Asic.Chip.Emitted { port; frame } ->
          Printf.sprintf "emitted:%d:%s" port
            (Digest.to_hex (Digest.bytes frame))
      | Asic.Chip.Dropped -> "dropped"
      | Asic.Chip.To_cpu b -> "to_cpu:" ^ Digest.to_hex (Digest.bytes b))

let run_with_signatures ~f workload =
  let n = List.length workload in
  let sigs = Array.make n "" in
  let stats = f (fun i r -> sigs.(i) <- signature_of r) workload in
  (stats, sigs)

(* domains:1 takes the sequential path outright: every field of the
   batch — including the order-sensitive digest and float latency —
   is identical. *)
let test_domains1_digest_identical () =
  let st = Random.State.make [| 7 |] in
  let workload = random_workload st 64 in
  let seq = Runtime.process_batch (runtime ()) workload in
  let par =
    Runtime.process_batch_parallel ~domains:1 (runtime ()) workload
  in
  check Alcotest.bool "identical batch_stats (digest included)" true (seq = par)

(* Integer totals and per-packet outcomes for k ∈ {1, 2, 4}: latency is
   a float sum and therefore order-dependent across shards, so the
   equivalence contract covers everything else. *)
let totals_match (a : Runtime.batch_stats) (b : Runtime.batch_stats) =
  a.Runtime.packets = b.Runtime.packets
  && a.Runtime.emitted = b.Runtime.emitted
  && a.Runtime.dropped = b.Runtime.dropped
  && a.Runtime.to_cpu = b.Runtime.to_cpu
  && a.Runtime.errors = b.Runtime.errors
  && a.Runtime.counters.Runtime.Counters.cpu_round_trips
     = b.Runtime.counters.Runtime.Counters.cpu_round_trips
  && a.Runtime.counters.Runtime.Counters.recircs
     = b.Runtime.counters.Runtime.Counters.recircs
  && a.Runtime.counters.Runtime.Counters.resubmits
     = b.Runtime.counters.Runtime.Counters.resubmits

let prop_parallel_equals_sequential =
  QCheck.Test.make ~name:"parallel = sequential (k in {1,2,4})" ~count:12
    QCheck.(pair small_nat (int_range 20 80))
    (fun (seed, n) ->
      let st = Random.State.make [| 1 + seed |] in
      let workload = random_workload st n in
      let seq, oracle =
        run_with_signatures ~f:(fun each w -> Runtime.process_batch ~each (runtime ()) w) workload
      in
      List.for_all
        (fun domains ->
          let par, sigs =
            run_with_signatures
              ~f:(fun each w ->
                Runtime.process_batch_parallel ~each ~domains (runtime ()) w)
              workload
          in
          totals_match seq par && sigs = oracle)
        [ 1; 2; 4 ])

(* A targeted stateful check, not random: exactly 12 tenant-5 packets
   interleaved with red traffic. The budget is 8, so packets 9..12 of
   that flow drop — sequentially and on every shard count. *)
let test_rate_limiter_budget_across_shards () =
  let red i =
    (i mod 4, tcp
       ~src:(Netpkt.Ip4.of_octets 203 0 113 (10 + i))
       ~dst:(ip "10.0.1.10") ~src_port:(6000 + i) ~dst_port:80)
  in
  let protected i =
    (i mod 4, tcp ~src:(ip "203.0.113.50") ~dst:(ip "10.0.5.7") ~src_port:1234
       ~dst_port:(* one flow: *) 80)
  in
  let workload =
    List.concat (List.init 12 (fun i -> [ red i; protected i ]))
  in
  let seq, oracle =
    run_with_signatures ~f:(fun each w -> Runtime.process_batch ~each (runtime ()) w) workload
  in
  check Alcotest.int "budget of 8: four tenant-5 packets drop" 4
    seq.Runtime.dropped;
  List.iter
    (fun domains ->
      let par, sigs =
        run_with_signatures
          ~f:(fun each w ->
            Runtime.process_batch_parallel ~each ~domains (runtime ()) w)
          workload
      in
      check Alcotest.bool
        (Printf.sprintf "domains:%d totals match" domains)
        true (totals_match seq par);
      check Alcotest.bool
        (Printf.sprintf "domains:%d per-packet outcomes match" domains)
        true
        (sigs = oracle))
    [ 2; 4 ]

(* Telemetry merge: per-shard registries fold back into the runtime's
   registry, so counters after a parallel batch equal the sequential
   run's. *)
let test_telemetry_merges_across_shards () =
  let st = Random.State.make [| 42 |] in
  let workload = random_workload st 60 in
  let engine =
    {
      Runtime.Engine.default with
      Runtime.Engine.telemetry = Telemetry.Level.Counters;
    }
  in
  let counters rt =
    match Runtime.telemetry rt with
    | None -> Alcotest.fail "telemetry not attached"
    | Some o ->
        let reg = Observe.registry o in
        List.map
          (fun name -> (name, !(Telemetry.Registry.counter reg name)))
          [
            "verdict.emitted"; "verdict.dropped"; "verdict.to_cpu";
            "verdict.error"; "path.cpu_round_trips"; "path.recircs";
            "path.resubmits";
          ]
  in
  let seq_rt = runtime ~engine () in
  let seq = Runtime.process_batch seq_rt workload in
  let par_rt = runtime ~engine () in
  let par = Runtime.process_batch_parallel ~domains:3 par_rt workload in
  check Alcotest.bool "stats totals agree" true (totals_match seq par);
  check
    Alcotest.(list (pair string int))
    "merged registry counters equal sequential" (counters seq_rt)
    (counters par_rt);
  (* The emitted counter really reflects the batch, not a default. *)
  check Alcotest.bool "emitted counter is live" true
    (List.assoc "verdict.emitted" (counters par_rt) = par.Runtime.emitted);
  (* Per-entry hits, counted by each replica over the primary's table
     bodies, merge back entry by entry. The LB session table is left
     out: the sessions a replica's handler installs die at the join,
     with the hits they took, while the sequential run keeps both. *)
  let lb_sessions = Compose.nf_table_name ~nf:Nflib.Lb.name Nflib.Lb.table_name in
  let entry_hits rt =
    List.filter_map
      (fun (name, hits) ->
        if String.ends_with ~suffix:("/" ^ lb_sessions) name then None
        else Some (name, List.map snd hits))
      (Observe.table_entry_hits (Runtime.chip rt))
  in
  check Alcotest.bool "some table entry was hit" true
    (List.exists (fun (_, l) -> List.exists (fun n -> n > 0) l) (entry_hits seq_rt));
  check
    Alcotest.(list (pair string (list int)))
    "merged per-entry hits equal sequential" (entry_hits seq_rt)
    (entry_hits par_rt)

(* Sharding is pure flow affinity: every packet of a 5-tuple flow lands
   on the same shard, whatever the in_port. *)
let test_shard_affinity () =
  let frame = tcp ~src:(ip "203.0.113.1") ~dst:(ip "10.0.1.10") ~src_port:7 ~dst_port:80 in
  let shards =
    List.init 16 (fun in_port ->
        Runtime.shard_of_packet ~domains:4 in_port frame)
  in
  check Alcotest.int "one shard for the flow" 1
    (List.length (List.sort_uniq Int.compare shards));
  (* Unparseable frames fall back to in_port. *)
  let junk = Bytes.make 3 '\x00' in
  check Alcotest.bool "junk shards by in_port" true
    (Runtime.shard_of_packet ~domains:4 0 junk
    <> Runtime.shard_of_packet ~domains:4 1 junk)

(* Direction symmetry: a NAT'd or load-balanced reply (B -> A) must land
   on the shard that processed the forward flow (A -> B) and holds its
   bindings. Pinned by QCheck over random 5-tuples and shard counts —
   the old directed hash failed this for almost every tuple. *)
let prop_shard_direction_symmetric =
  QCheck.Test.make ~name:"shard(A->B) = shard(B->A) for any 5-tuple"
    ~count:200
    QCheck.(
      pair
        (pair (pair small_nat small_nat) (pair small_nat small_nat))
        (pair (int_range 2 8) (pair small_nat small_nat)))
    (fun (((a, b), (c, d)), (domains, (sp, dp))) ->
      let src = Netpkt.Ip4.of_octets (a land 255) (b land 255) (c land 255) 1
      and dst = Netpkt.Ip4.of_octets (d land 255) (a land 255) (b land 255) 2 in
      let fwd = tcp ~src ~dst ~src_port:(sp land 0xffff) ~dst_port:(dp land 0xffff) in
      let rev = tcp ~src:dst ~dst:src ~src_port:(dp land 0xffff) ~dst_port:(sp land 0xffff) in
      Runtime.shard_of_packet ~domains 0 fwd
      = Runtime.shard_of_packet ~domains 3 rev)

(* End-to-end bidirectional NAT-style check: forward flows through the
   natted chain, then "replies" with the endpoints swapped — both
   directions of each connection must hash to one shard, so parallel
   outcomes match the sequential oracle packet-for-packet. *)
let test_bidirectional_flows_share_a_shard () =
  let conn i =
    let src = Netpkt.Ip4.of_octets 192 168 0 (10 + (i mod 2))
    and dst = Netpkt.Ip4.of_octets 10 0 6 (1 + (i mod 30)) in
    let sp = 3000 + i and dp = 443 in
    let fwd = tcp ~src ~dst ~src_port:sp ~dst_port:dp in
    let rev = tcp ~src:dst ~dst:src ~src_port:dp ~dst_port:sp in
    List.iter
      (fun domains ->
        check Alcotest.int
          (Printf.sprintf "conn %d shares a shard at domains:%d" i domains)
          (Runtime.shard_of_packet ~domains 0 fwd)
          (Runtime.shard_of_packet ~domains 1 rev))
      [ 2; 3; 4 ];
    [ (i mod 4, fwd); ((i + 1) mod 4, rev) ]
  in
  let workload = List.concat (List.init 24 conn) in
  let seq, oracle =
    run_with_signatures
      ~f:(fun each w -> Runtime.process_batch ~each (runtime ()) w)
      workload
  in
  List.iter
    (fun domains ->
      let par, sigs =
        run_with_signatures
          ~f:(fun each w ->
            Runtime.process_batch_parallel ~each ~domains (runtime ()) w)
          workload
      in
      check Alcotest.bool
        (Printf.sprintf "domains:%d totals match" domains)
        true (totals_match seq par);
      check Alcotest.bool
        (Printf.sprintf "domains:%d per-packet outcomes match" domains)
        true (sigs = oracle))
    [ 2; 4 ]

let () =
  Alcotest.run "parallel"
    [
      ( "equivalence",
        [
          Alcotest.test_case "domains:1 digest-identical" `Quick
            test_domains1_digest_identical;
          qtest prop_parallel_equals_sequential;
          Alcotest.test_case "rate-limiter budget across shards" `Quick
            test_rate_limiter_budget_across_shards;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "registries merge" `Quick
            test_telemetry_merges_across_shards;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "flow affinity" `Quick test_shard_affinity;
          qtest prop_shard_direction_symmetric;
          Alcotest.test_case "bidirectional flows share a shard" `Quick
            test_bidirectional_flows_share_a_shard;
        ] );
    ]
