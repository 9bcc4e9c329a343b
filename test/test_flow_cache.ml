(* The exact-match flow cache: differential equivalence against the
   uncached oracle (including stateful NFs and mid-stream table
   updates), epoch invalidation, stateful fallbacks, and LRU eviction
   at tiny capacity. *)

open Dejavu_core

(* The result-API install for tests: a failed install is a test bug. *)
let must_add t e =
  match P4ir.Table.add_entry t e with Ok () -> () | Error m -> Alcotest.fail m

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let ip = Netpkt.Ip4.of_string_exn
let pfx = Netpkt.Ip4.prefix_of_string_exn

(* Same deployment as the parallel suite: every kind of runtime state —
   LB CPU punts + per-flow sessions (red), count-min sketch + packet
   budget (protected), static NAT (natted). *)
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

let runtime ?engine () =
  let compiled =
    Result.get_ok
      (Compiler.compile
         (Compiler.default_input ~registry:(registry ()) ~chains
            ~strategy:Placement.Greedy ()))
  in
  let rt = Runtime.create ?engine compiled in
  Nflib.Catalog.attach_handlers rt compiled;
  rt

let emc capacity =
  {
    Runtime.Engine.default with
    Runtime.Engine.cache = Runtime.Engine.Emc { capacity };
  }

let cached ?(capacity = 256) () = runtime ~engine:(emc capacity) ()

let cache rt = Option.get (Runtime.flow_cache rt)

let refused rt reason =
  List.assoc reason (Flow_cache.uncacheable_by_reason (cache rt))

let refusals_sum rt =
  let c = cache rt in
  List.fold_left (fun acc (_, n) -> acc + n) 0 (Flow_cache.uncacheable_by_reason c)
  = (Flow_cache.stats c).Flow_cache.uncacheable

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

let signature_of = function
  | Error e -> "error:" ^ e
  | Ok (o : Runtime.outcome) -> (
      match o.Runtime.verdict with
      | Asic.Chip.Emitted { port; frame } ->
          Printf.sprintf "emitted:%d:%s" port
            (Digest.to_hex (Digest.bytes frame))
      | Asic.Chip.Dropped -> "dropped"
      | Asic.Chip.To_cpu b -> "to_cpu:" ^ Digest.to_hex (Digest.bytes b))

let send rt (in_port, frame) = Runtime.process rt ~in_port frame

let signatures rt workload = List.map (fun p -> signature_of (send rt p)) workload

(* A natted flow: static table rewrite, no CPU, no registers — the
   cleanest cacheable traffic. *)
let natted i ~src_port =
  ( i mod 4,
    tcp
      ~src:(Netpkt.Ip4.of_octets 192 168 0 (10 + (i mod 2)))
      ~dst:(Netpkt.Ip4.of_octets 10 0 6 (1 + (i mod 30)))
      ~src_port ~dst_port:443 )

(* A red flow: LB punts the first packet to the CPU (uncacheable),
   then installs a session — steady-state packets are cacheable. *)
let red ~src_octet ~src_port =
  ( 0,
    tcp
      ~src:(Netpkt.Ip4.of_octets 203 0 113 src_octet)
      ~dst:(ip "10.0.1.10") ~src_port ~dst_port:80 )

let fw_table rt =
  match
    Asic.Chip.find_table (Runtime.chip rt)
      (Compose.nf_table_name ~nf:Nflib.Firewall.name Nflib.Firewall.table_name)
  with
  | Some t -> t
  | None -> Alcotest.fail "fw ACL table not found on the chip"

(* Install a deny rule for one exact source, above the catalog rules. *)
let deny_src rt src =
  must_add (fw_table rt)
    {
      P4ir.Table.priority = 1000;
      patterns =
        [
          P4ir.Table.M_ternary
            {
              value = P4ir.Bitval.make ~width:32 (Netpkt.Ip4.to_int64 src);
              mask = P4ir.Bitval.max_value 32;
            };
          P4ir.Table.M_any;
          P4ir.Table.M_any;
          P4ir.Table.M_any;
        ];
      action = "deny";
      args = [];
    }

(* --- Hits: byte-identical replay, counted ------------------------- *)

let test_hit_byte_identical () =
  let crt = cached () and urt = runtime () in
  let pkt = natted 1 ~src_port:5001 in
  let first = signature_of (send crt pkt) in
  let second = signature_of (send crt pkt) in
  let third = signature_of (send crt pkt) in
  let oracle = signature_of (send urt pkt) in
  check Alcotest.string "miss = oracle" oracle first;
  check Alcotest.string "hit = oracle (byte-identical frame)" oracle second;
  check Alcotest.string "hit stays identical" oracle third;
  let s = Flow_cache.stats (cache crt) in
  check Alcotest.int "one miss" 1 s.Flow_cache.misses;
  check Alcotest.int "two hits" 2 s.Flow_cache.hits;
  check Alcotest.int "one insert" 1 s.Flow_cache.inserts

let test_punts_and_recircs_uncacheable () =
  (* The red chain spans pipelets, so even steady-state packets
     recirculate through loopback ports — and recirculating flows (like
     CPU punts) must never be served from the cache. Outputs stay
     correct; they just never become hits. *)
  let crt = cached () and urt = runtime () in
  let pkt = red ~src_octet:9 ~src_port:7000 in
  (match send crt pkt with
  | Error e -> Alcotest.fail e
  | Ok o ->
      check Alcotest.int "first red packet consults the CPU" 1
        o.Runtime.counters.Runtime.Counters.cpu_round_trips;
      check Alcotest.bool "red chain recirculates" true
        (o.Runtime.counters.Runtime.Counters.recircs > 0));
  ignore (send urt pkt);
  List.iter
    (fun _ ->
      check Alcotest.string "uncached output = oracle"
        (signature_of (send urt pkt))
        (signature_of (send crt pkt)))
    [ (); (); () ];
  let s = Flow_cache.stats (cache crt) in
  check Alcotest.int "never served from cache" 0 s.Flow_cache.hits;
  check Alcotest.int "every run counted uncacheable" 4 s.Flow_cache.uncacheable

(* A single-pipelet LB deployment (classifier -> lb -> router): steady
   state neither punts nor recirculates, so sessions do cache. *)
let lb_runtime ?engine () =
  let rules =
    [ { Nflib.Classifier.dst_prefix = pfx "10.0.1.0/24"; proto = None; path_id = 10; tenant = 1 } ]
  in
  let registry =
    ("classifier", Nflib.Classifier.create rules)
    :: List.remove_assoc "classifier" (Nflib.Catalog.registry ())
  in
  let chains =
    [
      Chain.make ~path_id:10 ~name:"lb_only"
        ~nfs:[ "classifier"; "lb"; "router" ]
        ~weight:1.0 ~exit_port:1 ();
    ]
  in
  let compiled =
    Result.get_ok
      (Compiler.compile
         (Compiler.default_input ~registry ~chains ~strategy:Placement.Greedy ()))
  in
  let rt = Runtime.create ?engine compiled in
  Nflib.Catalog.attach_handlers rt compiled;
  rt

let test_lb_steady_state_cached () =
  let crt = lb_runtime ~engine:(emc 64) () in
  let flow ~src_port = red ~src_octet:9 ~src_port in
  let a = flow ~src_port:7000 in
  (match send crt a with
  | Error e -> Alcotest.fail e
  | Ok o ->
      check Alcotest.int "first packet consults the CPU" 1
        o.Runtime.counters.Runtime.Counters.cpu_round_trips;
      check Alcotest.int "single pipelet: no recircs" 0
        o.Runtime.counters.Runtime.Counters.recircs);
  (* Second packet is pure data plane and commits; third is a hit. *)
  let second = signature_of (send crt a) in
  let third = signature_of (send crt a) in
  check Alcotest.string "session hit replays identically" second third;
  check Alcotest.int "steady state cached" 1
    (Flow_cache.stats (cache crt)).Flow_cache.hits;
  (* A new flow's session install bumps the table epoch: A's entry goes
     stale, revalidates by re-running, and re-caches — output steady. *)
  let b = flow ~src_port:7500 in
  ignore (send crt b);
  let post = signature_of (send crt a) in
  check Alcotest.string "output unchanged across invalidation" second post;
  check Alcotest.bool "epoch bump detected as an invalidation" true
    ((Flow_cache.stats (cache crt)).Flow_cache.invalidations >= 1);
  let hits = (Flow_cache.stats (cache crt)).Flow_cache.hits in
  check Alcotest.string "re-cached after re-run" second
    (signature_of (send crt a));
  check Alcotest.int "hit again after re-cache" (hits + 1)
    (Flow_cache.stats (cache crt)).Flow_cache.hits

(* --- Telemetry: hit/miss counters surface in the registry --------- *)

let test_cache_counters_in_registry () =
  let engine =
    { (emc 256) with Runtime.Engine.telemetry = Telemetry.Level.Counters }
  in
  let rt = runtime ~engine () in
  let pkt = natted 2 ~src_port:5002 in
  ignore (send rt pkt);
  ignore (send rt pkt);
  ignore (send rt pkt);
  match Runtime.telemetry rt with
  | None -> Alcotest.fail "telemetry not attached"
  | Some o ->
      let reg = Observe.registry o in
      check Alcotest.int "cache.miss counter" 1
        !(Telemetry.Registry.counter reg "cache.miss");
      check Alcotest.int "cache.hit counter" 2
        !(Telemetry.Registry.counter reg "cache.hit")

(* --- Differential: cached = uncached oracle ----------------------- *)

(* Mixed random workload over all three chains plus unclassified and
   unparseable traffic; mirrors the flow-affinity workload the parallel
   suite uses. *)
let random_workload st n =
  List.init n (fun _ ->
      match Random.State.int st 5 with
      | 0 ->
          red
            ~src_octet:(1 + Random.State.int st 20)
            ~src_port:(2000 + Random.State.int st 30)
      | 1 ->
          (* one rate-limited flow for tenant 5 (budget 8) *)
          (2, tcp ~src:(ip "203.0.113.50") ~dst:(ip "10.0.5.7") ~src_port:1234
             ~dst_port:80)
      | 2 -> natted (Random.State.int st 8) ~src_port:(3000 + Random.State.int st 40)
      | 3 ->
          (3, tcp ~src:(ip "198.18.0.9") ~dst:(ip "192.0.2.77")
             ~src_port:(4000 + Random.State.int st 100) ~dst_port:80)
      | _ -> (Random.State.int st 4, Bytes.make (1 + Random.State.int st 8) '\x2a'))

let prop_cached_equals_uncached =
  QCheck.Test.make
    ~name:"cached = uncached oracle (stateful mix, mid-stream ACL update)"
    ~count:10
    QCheck.(pair small_nat (int_range 30 70))
    (fun (seed, n) ->
      let workload st = random_workload st n in
      let first = workload (Random.State.make [| 11 + seed |]) in
      let second = workload (Random.State.make [| 311 + seed |]) in
      let crt = cached () and urt = runtime () in
      let c1 = signatures crt first and u1 = signatures urt first in
      (* Mid-stream control-plane update on both runtimes: deny one red
         source that may well sit in the cache. *)
      let denied = Netpkt.Ip4.of_octets 203 0 113 5 in
      deny_src crt denied;
      deny_src urt denied;
      let c2 = signatures crt second and u2 = signatures urt second in
      c1 = u1 && c2 = u2)

(* Tenant 5's packets: one rate-limited flow (budget 8) through the
   protected chain, whose DDoS sketch and rate limiter update their
   registers on every packet. *)
let tenant5 =
  List.init 12 (fun i ->
      (i mod 4, tcp ~src:(ip "203.0.113.50") ~dst:(ip "10.0.5.7") ~src_port:1234
         ~dst_port:80))

let dropped sigs = List.length (List.filter (String.equal "dropped") sigs)

let test_rate_limiter_budget_with_cache () =
  (* Register-backed NFs must stay exact: tenant 5's budget is 8, so of
     12 packets exactly 4 drop — with the cache on, same as off. A run
     that touches a register is never cached: the 8 in-budget packets
     recirculate, and the 4 drops are refused as register runs, so
     nothing is inserted and nothing goes stale. *)
  let crt = cached () in
  let c = signatures crt tenant5 and u = signatures (runtime ()) tenant5 in
  check Alcotest.(list string) "cached = uncached, packet for packet" u c;
  check Alcotest.int "drops = over-budget packets" 4 (dropped c);
  let s = Flow_cache.stats (cache crt) in
  check Alcotest.int "register runs never hit" 0 s.Flow_cache.hits;
  check Alcotest.int "in-budget packets refused as recirc" 8 (refused crt "recirc");
  check Alcotest.int "drops refused as register runs" 4 (refused crt "register");
  check Alcotest.int "nothing inserted" 0 s.Flow_cache.inserts;
  check Alcotest.int "nothing stale" 0 s.Flow_cache.stale

let test_register_reset_with_cache () =
  (* A control-plane register reset under the cache: tenant 5 runs past
     its budget, [rl_counters] is reset on both runtimes, and the budget
     starts again. No cached verdict depends on a register, so the reset
     needs no invalidation for cached = uncached to hold. *)
  let crt = cached () and urt = runtime () in
  check Alcotest.(list string) "before the reset: cached = uncached"
    (signatures urt tenant5) (signatures crt tenant5);
  let reset rt =
    match Runtime.apply_ops rt [ Ctrl.Reg_reset "rl_counters" ] with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  reset crt;
  reset urt;
  let c = signatures crt tenant5 in
  check Alcotest.(list string) "after the reset: cached = uncached"
    (signatures urt tenant5) c;
  check Alcotest.int "the reset restores the budget" 4 (dropped c)

(* --- Refusals by reason --------------------------------------------- *)

let test_uncacheable_punt () =
  (* An LB flow's first packet makes a CPU round trip: counted under
     punt, the first reason commit checks. *)
  let crt = lb_runtime ~engine:(emc 64) () in
  ignore (send crt (red ~src_octet:9 ~src_port:7000));
  check Alcotest.int "punt" 1 (refused crt "punt");
  check Alcotest.int "one refusal" 1
    (Flow_cache.stats (cache crt)).Flow_cache.uncacheable;
  check Alcotest.bool "reasons sum to uncacheable" true (refusals_sum crt)

let test_uncacheable_recirc () =
  (* Under naive placement a green packet recirculates once and never
     punts: counted under recirc. *)
  let compiled =
    Result.get_ok
      (Compiler.compile (Nflib.Catalog.edge_cloud_input ~strategy:Placement.Naive ()))
  in
  let crt = Runtime.create ~engine:(emc 64) compiled in
  Nflib.Catalog.attach_handlers crt compiled;
  let green =
    tcp ~src:(ip "203.0.113.7") ~dst:(ip "10.0.3.17") ~src_port:40000 ~dst_port:443
  in
  (match send crt (0, green) with
  | Error e -> Alcotest.fail e
  | Ok o ->
      check Alcotest.int "one recirculation" 1
        o.Runtime.counters.Runtime.Counters.recircs;
      check Alcotest.int "no punt" 0 o.Runtime.counters.Runtime.Counters.cpu_round_trips);
  check Alcotest.int "recirc" 1 (refused crt "recirc");
  check Alcotest.int "punt" 0 (refused crt "punt");
  check Alcotest.bool "reasons sum to uncacheable" true (refusals_sum crt)

let test_uncacheable_sum () =
  (* A mixed stream over every chain: however the refusals fall, each
     counts under exactly one reason, and the runtime exports each. *)
  let engine =
    { (emc 256) with Runtime.Engine.telemetry = Telemetry.Level.Counters }
  in
  let crt = runtime ~engine () in
  List.iter
    (fun p -> ignore (send crt p))
    (random_workload (Random.State.make [| 5 |]) 80);
  check Alcotest.bool "some refusals" true
    ((Flow_cache.stats (cache crt)).Flow_cache.uncacheable > 0);
  check Alcotest.bool "reasons sum to uncacheable" true (refusals_sum crt);
  match Runtime.snapshot crt with
  | None -> Alcotest.fail "telemetry not attached"
  | Some _ ->
      let reg = Observe.registry (Option.get (Runtime.telemetry crt)) in
      List.iter
        (fun (reason, n) ->
          check Alcotest.int ("cache.uncacheable." ^ reason) n
            !(Telemetry.Registry.counter reg ("cache.uncacheable." ^ reason)))
        (Flow_cache.uncacheable_by_reason (cache crt))

(* --- Invalidation: table updates kill exactly the affected verdicts - *)

(* Add a NAT binding for a source the catalog leaves unbound. *)
let bind_nat rt ~internal ~public =
  match
    Asic.Chip.find_table (Runtime.chip rt)
      (Compose.nf_table_name ~nf:Nflib.Nat.name Nflib.Nat.table_name)
  with
  | None -> Alcotest.fail "NAT table not found on the chip"
  | Some t ->
      must_add t
        {
          P4ir.Table.priority = 0;
          patterns =
            [
              P4ir.Table.M_exact
                (P4ir.Bitval.make ~width:32 (Netpkt.Ip4.to_int64 internal));
            ];
          action = "snat";
          args =
            [ P4ir.Bitval.make ~width:32 (Netpkt.Ip4.to_int64 public) ];
        }

let test_table_update_invalidates_cached_flows () =
  let natted_from src ~src_port =
    (1, tcp ~src ~dst:(ip "10.0.6.1") ~src_port ~dst_port:443)
  in
  let a = natted_from (ip "192.168.0.10") ~src_port:7100 in
  let b = natted_from (ip "192.168.0.12") ~src_port:7200 in
  let crt = cached () in
  (* Warm both flows (A rewritten by the static binding, B passes with
     no binding), then confirm both are served from cache. *)
  List.iter (fun p -> ignore (send crt p)) [ a; b ];
  let hits_before = (Flow_cache.stats (cache crt)).Flow_cache.hits in
  let sig_a = signature_of (send crt a) in
  let sig_b = signature_of (send crt b) in
  check Alcotest.int "both flows served from cache" (hits_before + 2)
    (Flow_cache.stats (cache crt)).Flow_cache.hits;
  (* Bind B's source. The NAT-table mutation bumps the epoch, so both
     cached verdicts revalidate: B's output must change, A's must not —
     and both must equal a cold uncached run of the updated chip. *)
  bind_nat crt ~internal:(ip "192.168.0.12") ~public:(ip "203.0.113.202");
  let post_a = signature_of (send crt a) in
  let post_b = signature_of (send crt b) in
  check Alcotest.string "unaffected flow unchanged" sig_a post_a;
  check Alcotest.bool "bound flow's output changed" true (post_b <> sig_b);
  check Alcotest.bool "epoch invalidations were detected" true
    ((Flow_cache.stats (cache crt)).Flow_cache.invalidations >= 1);
  let urt = runtime () in
  bind_nat urt ~internal:(ip "192.168.0.12") ~public:(ip "203.0.113.202");
  check Alcotest.string "post-update = cold uncached run (A)"
    (signature_of (send urt a)) post_a;
  check Alcotest.string "post-update = cold uncached run (B)"
    (signature_of (send urt b)) post_b

(* --- LRU eviction at tiny capacity -------------------------------- *)

let test_lru_eviction_tiny_capacity () =
  let crt = cached ~capacity:2 () in
  let f1 = natted 0 ~src_port:6001 in
  let f2 = natted 1 ~src_port:6002 in
  let f3 = natted 2 ~src_port:6003 in
  ignore (send crt f1);
  ignore (send crt f2);
  check Alcotest.int "two entries" 2 (Flow_cache.length (cache crt));
  (* Touch f1 so f2 becomes the LRU victim, then insert f3. *)
  ignore (send crt f1);
  ignore (send crt f3);
  let c = cache crt in
  check Alcotest.int "capacity bound holds" 2 (Flow_cache.length c);
  check Alcotest.int "one eviction" 1 (Flow_cache.stats c).Flow_cache.evictions;
  (* f2 was evicted: resending it misses (and re-inserts, evicting f1
     which is now the oldest untouched entry). *)
  let misses = (Flow_cache.stats c).Flow_cache.misses in
  ignore (send crt f2);
  check Alcotest.int "evicted flow misses" (misses + 1)
    (Flow_cache.stats c).Flow_cache.misses;
  (* f3 is still resident (touched more recently than f1 was). *)
  let hits = (Flow_cache.stats c).Flow_cache.hits in
  ignore (send crt f3);
  check Alcotest.int "resident flow still hits" (hits + 1)
    (Flow_cache.stats c).Flow_cache.hits;
  (* Outputs stay correct throughout eviction churn. *)
  let urt = runtime () in
  List.iter
    (fun p ->
      check Alcotest.string "post-churn output = oracle"
        (signature_of (send urt p))
        (signature_of (send crt p)))
    [ f1; f2; f3 ]

(* The LRU against a list model: random sends of six natted flows at
   capacity 1-4, with NAT and ACL updates in between. A NAT update
   bumps the epoch of a table every natted walk reads, so every entry
   recorded before it dies at its next lookup (an invalidation, then a
   miss that re-inserts); an ACL update touches the firewall's table,
   which no natted walk reads. The model is the key list, most recent
   first, each key with the NAT generation it was recorded at. *)
let prop_lru_model =
  QCheck.Test.make ~name:"lru = list model (natted flows, NAT/ACL updates)"
    ~count:40
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(int_range 1 40) (int_range 0 9)))
    (fun (capacity, steps) ->
      let crt = cached ~capacity () and urt = runtime () in
      let c = cache crt in
      let flows = Array.init 6 (fun i -> natted i ~src_port:(8000 + i)) in
      let mru = ref [] and gen = ref 0 and updates = ref 0 in
      let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
      let invalidations = ref 0 in
      let step k =
        if k >= 8 then begin
          incr updates;
          if k = 8 then begin
            let internal = Netpkt.Ip4.of_octets 192 168 1 !updates in
            let public = Netpkt.Ip4.of_octets 203 0 113 (100 + !updates) in
            bind_nat crt ~internal ~public;
            bind_nat urt ~internal ~public;
            incr gen
          end
          else begin
            let src = Netpkt.Ip4.of_octets 198 51 100 !updates in
            deny_src crt src;
            deny_src urt src
          end;
          true
        end
        else begin
          let ((in_port, frame) as pkt) = flows.(k mod 6) in
          let key = Flow_cache.key_of ~in_port frame in
          (match List.assoc_opt key !mru with
          | Some g when g = !gen ->
              incr hits;
              mru := (key, g) :: List.remove_assoc key !mru
          | recorded ->
              if Option.is_some recorded then begin
                incr invalidations;
                mru := List.remove_assoc key !mru
              end;
              incr misses;
              if List.length !mru >= capacity then begin
                mru := List.filteri (fun i _ -> i < capacity - 1) !mru;
                incr evictions
              end;
              mru := (key, !gen) :: !mru);
          signature_of (send crt pkt) = signature_of (send urt pkt)
        end
      in
      List.for_all
        (fun k ->
          let same_output = step k in
          let s = Flow_cache.stats c in
          same_output
          && Flow_cache.keys_mru c = List.map fst !mru
          && Flow_cache.length c = List.length !mru
          && s.Flow_cache.hits = !hits
          && s.Flow_cache.misses = !misses
          && s.Flow_cache.evictions = !evictions
          && s.Flow_cache.invalidations = !invalidations)
        steps)

(* --- Cache-off runs are byte-identical to an engine with no knob --- *)

let test_cache_off_identical () =
  let st = Random.State.make [| 99 |] in
  let workload = random_workload st 40 in
  let off = Runtime.process_batch (runtime ()) workload in
  let on = Runtime.process_batch (cached ()) workload in
  check Alcotest.bool "cached batch = uncached batch (digest included)" true
    (off.Runtime.digest = on.Runtime.digest
    && off.Runtime.emitted = on.Runtime.emitted
    && off.Runtime.dropped = on.Runtime.dropped
    && off.Runtime.to_cpu = on.Runtime.to_cpu
    && off.Runtime.errors = on.Runtime.errors)

(* --- Parallel shards each get a private cache ---------------------- *)

let test_parallel_with_cache_matches_sequential () =
  let st = Random.State.make [| 21 |] in
  let workload = random_workload st 60 in
  let seq = Runtime.process_batch (runtime ()) workload in
  let n = List.length workload in
  let sigs = Array.make n "" and oracle = Array.make n "" in
  ignore
    (Runtime.process_batch
       ~each:(fun i r -> oracle.(i) <- signature_of r)
       (runtime ()) workload);
  let par =
    Runtime.process_batch_parallel ~domains:4
      ~each:(fun i r -> sigs.(i) <- signature_of r)
      (cached ()) workload
  in
  check Alcotest.bool "totals match sequential uncached" true
    (seq.Runtime.emitted = par.Runtime.emitted
    && seq.Runtime.dropped = par.Runtime.dropped
    && seq.Runtime.to_cpu = par.Runtime.to_cpu
    && seq.Runtime.errors = par.Runtime.errors);
  check Alcotest.bool "per-packet outcomes match" true (sigs = oracle)

let () =
  Alcotest.run "flow_cache"
    [
      ( "hits",
        [
          Alcotest.test_case "byte-identical replay" `Quick
            test_hit_byte_identical;
          Alcotest.test_case "punts and recircs uncacheable" `Quick
            test_punts_and_recircs_uncacheable;
          Alcotest.test_case "lb steady state cached" `Quick
            test_lb_steady_state_cached;
          Alcotest.test_case "registry counters" `Quick
            test_cache_counters_in_registry;
        ] );
      ( "uncacheable",
        [
          Alcotest.test_case "lb first packet: punt" `Quick test_uncacheable_punt;
          Alcotest.test_case "naive green: recirc" `Quick test_uncacheable_recirc;
          Alcotest.test_case "reasons sum and export" `Quick test_uncacheable_sum;
        ] );
      ( "differential",
        [
          qtest prop_cached_equals_uncached;
          Alcotest.test_case "rate limiter exact with cache" `Quick
            test_rate_limiter_budget_with_cache;
          Alcotest.test_case "register reset with cache" `Quick
            test_register_reset_with_cache;
          Alcotest.test_case "cache off identical" `Quick
            test_cache_off_identical;
          Alcotest.test_case "parallel shards with cache" `Quick
            test_parallel_with_cache_matches_sequential;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "table update invalidates cached flows" `Quick
            test_table_update_invalidates_cached_flows;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "lru at capacity 2" `Quick
            test_lru_eviction_tiny_capacity;
          qtest prop_lru_model;
        ] );
    ]
