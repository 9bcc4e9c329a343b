(* One run of one workload: set-up, warm-up, the timed window, the
   correctness checks, then the end-to-end report (untraced) or the
   per-layer report (traced). *)

open Dejavu_core
open Workload

(* Deliberate corruption of one observation, to show the correctness
   gate fails the run rather than just reporting. *)
type tamper = Digest | Frame | Ctrl_digest

type result = {
  correct : bool;
  checks : (string * bool) list;
  attempted : int;
  failed : int;
  values : (string * float) list;  (** catalogue metrics, by name *)
  extras : (string * float * string) list;  (** printed alongside: name, value, unit *)
  spans : Span.t option;  (** the traced run's spans *)
}

let per n x = if n = 0 then 0.0 else x /. float_of_int n
let sorted_p buf p = Stats.percentile (Stats.Buf.sorted buf) p
let mean buf = per (Stats.Buf.length buf) (Stats.Buf.sum buf)
let live_words () = (Gc.stat ()).Gc.live_words
let mib words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0
let with_copies pkts = List.map (fun (p, f) -> (p, Bytes.copy f)) pkts

let split_rounds ~per ops =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | op :: rest ->
        if k = per then go (List.rev cur :: acc) [ op ] 1 rest else go acc (op :: cur) (k + 1) rest
  in
  Array.of_list (go [] [] 0 ops)

let same_batch (a : Runtime.batch_stats) (b : Runtime.batch_stats) =
  a.Runtime.digest = b.Runtime.digest
  && a.Runtime.emitted = b.Runtime.emitted
  && a.Runtime.dropped = b.Runtime.dropped
  && a.Runtime.to_cpu = b.Runtime.to_cpu
  && a.Runtime.errors = b.Runtime.errors

let flip_last_byte = function
  | Ok { Runtime.verdict = Asic.Chip.Emitted { frame; _ }; _ } when Bytes.length frame > 0 ->
      let i = Bytes.length frame - 1 in
      Bytes.set frame i (Char.chr (Char.code (Bytes.get frame i) lxor 1));
      true
  | _ -> false

(* The traced runtime's counters at one instant: its registry, flow
   cache and state stores. *)
type tally = {
  registry : Telemetry.Registry.snapshot;
  cache : Flow_cache.stats;
  occupancy : int;
  store : State_store.table_stats;
}

let tally rt =
  let cache =
    match Runtime.flow_cache rt with
    | Some c ->
        let s = Flow_cache.stats c in
        { s with Flow_cache.hits = s.Flow_cache.hits }
    | None ->
        { Flow_cache.hits = 0; misses = 0; stale = 0; invalidations = 0; uncacheable = 0; inserts = 0; evictions = 0 }
  in
  let store = { State_store.hits = 0; misses = 0; inserts = 0; evictions = 0; expirations = 0 } in
  let occupancy = ref 0 in
  Array.iter
    (fun s ->
      List.iter
        (fun (_, occ, (t : State_store.table_stats)) ->
          occupancy := !occupancy + occ;
          store.State_store.hits <- store.State_store.hits + t.State_store.hits;
          store.State_store.misses <- store.State_store.misses + t.State_store.misses;
          store.State_store.inserts <- store.State_store.inserts + t.State_store.inserts;
          store.State_store.evictions <- store.State_store.evictions + t.State_store.evictions)
        (State_store.per_table s))
    (Runtime.state_stores rt);
  { registry = Option.value ~default:[] (Runtime.snapshot rt); cache; occupancy = !occupancy; store }

type traced = { t : Deploy.t; tracer : Drive.tracer; spans : Span.t; acc : Drive.acc }

(* What [measure] leaves for the checks and the reports. *)
type measured = {
  z : sizes;
  ops : Ctrl.op list array;  (** per round *)
  u : Deploy.t;  (** the measured, untraced runtime *)
  acc : Drive.acc;
  setups : Deploy.timing list;
  setup_calib : float list;
  heap_words : int;  (** live words at the window's end, less the inputs' *)
  first : Runtime.batch_stats array;  (** the first [check_rounds] batches *)
  traced : traced option;
  traced_same : bool;  (** the traced runtime's batches equalled the untraced's *)
  window : (tally * tally) option;  (** the traced runtime, before and after *)
  samples : Bytes.t list;  (** frames for the layer probes *)
}

let measure ?tamper ~seed ~smoke ~seconds ~trace w =
  let z = sizes ~smoke ~seconds ~trace w in
  let rounds = z.warmup + z.timed in
  let domains = w.engine.Runtime.Engine.domains in
  (* Inputs first, so the live-heap baseline holds them and the metric
     measures the deployment and its state alone. *)
  let ops =
    if w.ops_per_round = 0 then Array.make rounds []
    else
      split_rounds ~per:w.ops_per_round
        (Nflib.Catalog.fib_churn_trace ~seed ~n:(rounds * w.ops_per_round) ())
  in
  let traffic = w.traffic ~seed in
  let spans = if trace then Some (Span.create ()) else None in
  let base_words = live_words () in
  (* Set-up: [setups] fresh deployments, the first [discarded] untimed,
     a full major GC and a calibration sample before each. The last one
     is the measured runtime. *)
  let timings = ref [] and setup_calib = ref [] and last = ref None in
  for i = 1 to z.setups do
    last := None;
    Gc.full_major ();
    let measured = i > z.discarded in
    if measured then setup_calib := Calib.sample () :: !setup_calib;
    let d, tm = Deploy.setup ?spans:(if measured then spans else None) w.kind w.engine in
    if measured then timings := tm :: !timings;
    last := Some d
  done;
  let u = Option.get !last in
  (* The traced runtime: engine telemetry at Counters and handlers timed
     from outside. It sees the same batches as [u], interleaved. *)
  let traced =
    Option.map
      (fun spans ->
        let calls = Drive.calls () in
        let t, _ =
          Deploy.setup ~wrap:(Drive.wrap_handler calls spans) w.kind
            { w.engine with Runtime.Engine.telemetry = Telemetry.Level.Counters }
        in
        { t; tracer = Drive.tracer spans calls; spans; acc = Drive.acc () })
      spans
  in
  let acc = Drive.acc () and sc = Drive.scratch () in
  let first = ref [] and traced_same = ref true in
  let on_traced f = Option.iter f traced in
  (* Warm-up: untimed; caches fill and sessions install. *)
  for r = 0 to z.warmup - 1 do
    ignore (Drive.ops ~record:false acc u.Deploy.rt ops.(r));
    on_traced (fun tr -> ignore (Drive.ops ~record:false tr.acc tr.t.Deploy.rt ops.(r)));
    let pkts = Gen.batch traffic w.batch in
    let copies = if trace then with_copies pkts else pkts in
    let also =
      match tamper with
      | Some Frame when r = 0 ->
          let flipped = ref false in
          Some (fun _ res -> if not !flipped then flipped := flip_last_byte res)
      | _ -> None
    in
    let s = Drive.batch ~record:false ?also acc sc u.Deploy.rt ~domains pkts in
    if r < z.check_rounds then first := s :: !first;
    on_traced (fun tr ->
        let st = Drive.batch ~tracer:tr.tracer ~record:false tr.acc sc tr.t.Deploy.rt ~domains copies in
        if tamper <> Some Frame && not (same_batch s st) then traced_same := false)
  done;
  (* The timed window. The traced runtime goes first on odd rounds, so
     neither side always runs on caches the other just warmed. *)
  let before = Option.map (fun tr -> tally tr.t.Deploy.rt) traced in
  let samples = ref [] and stride = max 1 (z.timed * w.batch / 5000) in
  for r = z.warmup to rounds - 1 do
    let pkts = Gen.batch traffic w.batch in
    let run_traced copies =
      on_traced (fun tr ->
          ignore (Drive.ops ~tracer:tr.tracer tr.acc tr.t.Deploy.rt ops.(r));
          ignore (Drive.batch ~tracer:tr.tracer tr.acc sc tr.t.Deploy.rt ~domains copies))
    in
    let copies = if trace then with_copies pkts else pkts in
    if trace then
      List.iteri
        (fun i (_, f) -> if (acc.Drive.packets + i) mod stride = 0 then samples := Bytes.copy f :: !samples)
        pkts;
    let traced_first = (r - z.warmup) mod 2 = 1 in
    if traced_first then run_traced copies;
    ignore (Drive.ops acc u.Deploy.rt ops.(r));
    ignore (Drive.batch ~calibrate:true acc sc u.Deploy.rt ~domains pkts);
    if not traced_first then run_traced copies
  done;
  let heap_words = live_words () - base_words in
  {
    z;
    ops;
    u;
    acc;
    setups = List.rev !timings;
    setup_calib = !setup_calib;
    heap_words;
    first = Array.of_list (List.rev !first);
    traced;
    traced_same = !traced_same;
    window =
      (match (traced, before) with
      | Some tr, Some b -> Some (b, tally tr.t.Deploy.rt)
      | _ -> None);
    samples = List.rev !samples;
  }

(* The correctness checks (untimed, every run), with the per-op timings
   of the cold replay when the workload has one. *)
let check ?tamper ~seed ~smoke w m =
  let domains = w.engine.Runtime.Engine.domains in
  let replay = Probes.ctrl () in
  let checks =
    match w.check with
    | Oracle o ->
        let oracle, _ = Deploy.setup w.kind o.engine in
        let stream = w.traffic ~seed in
        let agree =
          Array.mapi
            (fun r (s : Runtime.batch_stats) ->
              let s =
                if r = 0 && tamper = Some Digest then
                  { s with Runtime.digest = Int64.logxor s.Runtime.digest 1L }
                else s
              in
              same_batch s (Runtime.process_batch oracle.Deploy.rt (Gen.batch stream w.batch)))
            m.first
        in
        let oracle_name =
          match (o.engine.Runtime.Engine.exec_mode, o.engine.Runtime.Engine.cache) with
          | Asic.Chip.Reference, _ -> "Reference-mode"
          | Asic.Chip.Fast, Runtime.Engine.Off -> "uncached"
          | Asic.Chip.Fast, Runtime.Engine.Emc _ -> "cached"
        in
        [
          ( Printf.sprintf "first %d packets match a fresh %s runtime" (m.z.check_rounds * w.batch)
              oracle_name,
            Array.for_all Fun.id agree );
        ]
    | Live_cold { probe } ->
        let cold, _ = Deploy.setup w.kind w.engine in
        Array.iter (List.iter (Probes.apply_op replay (Runtime.chip cold.Deploy.rt))) m.ops;
        let digest rt = Ctrl.state_digest (Runtime.chip rt) in
        let live =
          if tamper = Some Ctrl_digest then Int64.logxor (digest m.u.Deploy.rt) 1L
          else digest m.u.Deploy.rt
        in
        let cold_digest = digest cold.Deploy.rt in
        let probe_pkts = Gen.batch (w.traffic ~seed) (if smoke then probe / 10 else probe) in
        let forward rt = (Runtime.process_batch_parallel ~domains rt (with_copies probe_pkts)).Runtime.digest in
        [
          ( "live control-plane state equals the cold-applied trace's",
            Int64.equal live cold_digest
            && Option.fold ~none:true ~some:(fun (tr : traced) -> Int64.equal (digest tr.t.Deploy.rt) cold_digest) m.traced
          );
          ( "live and cold runtimes forward a probe batch identically",
            Int64.equal (forward m.u.Deploy.rt) (forward cold.Deploy.rt) );
        ]
  in
  let traced_errors =
    Option.fold ~none:0 ~some:(fun (tr : traced) -> tr.acc.Drive.errors + tr.acc.Drive.ops_failed) m.traced
  in
  ( checks
    @ (if m.traced <> None then [ ("traced runtime's outputs equal the untraced runtime's", m.traced_same) ]
       else [])
    @ [
        ( "no packet errors or failed control ops",
          m.acc.Drive.errors + m.acc.Drive.ops_failed + traced_errors = 0 );
      ],
    replay )

(* A report under construction. *)
type report = { mutable values : (string * float) list; mutable extras : (string * float * string) list }

let value r name x = r.values <- (name, x) :: r.values
let extra r name x unit = r.extras <- (name, x, unit) :: r.extras
let setup_ms m f = Stats.median (List.map (fun tm -> float_of_int (f tm) /. 1e6) m.setups)

(* End to end, from the untraced runtime. Host times are calibrated:
   each batch's scaled by the factor of the calibration samples around
   it (see [Calib]); the raw values are printed beside them. *)
let end_to_end r w m =
  let a = m.acc in
  let pkts = a.Drive.packets in
  let f = Calib.factors (Stats.Buf.to_array a.Drive.calib_ns) in
  let raw_lat = Stats.Buf.to_array a.Drive.lat in
  let lat = Array.mapi (fun i l -> l *. f.(i / w.batch)) raw_lat in
  Array.sort Float.compare lat;
  Array.sort Float.compare raw_lat;
  let wall_s = ref 0.0 in
  Array.iteri (fun b ms -> wall_s := !wall_s +. (ms *. f.(b) /. 1e3)) (Stats.Buf.to_array a.Drive.batch_ms);
  let raw_setup_s = setup_ms m (fun tm -> tm.Deploy.total) /. 1e3 in
  value r "setup_s" (raw_setup_s *. Calib.factor m.setup_calib);
  value r "pkts_per_s" (float_of_int pkts /. !wall_s);
  value r "pkt_ns_p50" (Stats.percentile lat 50.0);
  value r "pkt_ns_p99" (Stats.percentile lat 99.0);
  value r "alloc_words_per_pkt" (per pkts a.Drive.alloc_words);
  value r "live_heap_mb" (mib m.heap_words);
  extra r "packets" (float_of_int pkts) "count";
  (match Stats.supported_percentile ~n:pkts with
  | Some p when p > 99.0 ->
      extra r (Printf.sprintf "pkt_ns_p%s" (Jsonv.num_to_string p)) (Stats.percentile lat p) "ns"
  | _ -> ());
  (* The modelled ASIC clock is deterministic and, on an all-green
     workload, the same for every packet: printed, not gated. *)
  extra r "model_latency_ns" (per a.Drive.emitted a.Drive.model_ns) "ns";
  extra r "error_rate" (per (pkts + a.Drive.ops) (float_of_int (a.Drive.errors + a.Drive.ops_failed))) "fraction";
  if a.Drive.ops > 0 then begin
    extra r "ctrl_ops_per_s" (float_of_int a.Drive.ops /. (float_of_int a.Drive.ctrl_ns /. 1e9)) "op/s";
    extra r "ctrl_batch_us_p50" (sorted_p a.Drive.ctrl_us 50.0) "us";
    extra r "ctrl_batch_us_p99" (sorted_p a.Drive.ctrl_us 99.0) "us"
  end;
  extra r "calib.host_speed" (Stats.median (Array.to_list f)) "ratio";
  extra r "raw.setup_s" raw_setup_s "s";
  extra r "raw.pkts_per_s" (float_of_int pkts /. (float_of_int a.Drive.wall_ns /. 1e9)) "pkt/s";
  extra r "raw.pkt_ns_p50" (Stats.percentile raw_lat 50.0) "ns";
  extra r "raw.pkt_ns_p99" (Stats.percentile raw_lat 99.0) "ns"

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let has_suffix suf s =
  let n = String.length s and k = String.length suf in
  n >= k && String.sub s (n - k) k = suf

(* Per layer: the traced runtime's window (registry deltas, spans,
   tallies), then layer probes on sampled packets. *)
let per_layer r ~seed ~smoke w m (tr : traced) (t0, t1) ~replay =
  let a = tr.acc in
  let tp = a.Drive.packets in
  let kpkt n = per tp (1000.0 *. float_of_int n) in
  (* compiler: the set-up phases, and the placement solve alone. *)
  value r "compiler.compile_ms" (setup_ms m (fun tm -> tm.Deploy.compile));
  value r "ctrl.fib_install_ms" (setup_ms m (fun tm -> tm.Deploy.fib));
  value r "runtime.create_ms" (setup_ms m (fun tm -> tm.Deploy.create));
  let input = Deploy.input w.kind in
  let pinput = Deploy.fail "placement input" (Compiler.placement_input input) in
  value r "placement.solve_ms"
    (Stats.median
       (List.init 11 (fun _ ->
            let s = Clock.now_ns () in
            ignore (Placement.solve pinput input.Compiler.strategy);
            float_of_int (Clock.now_ns () - s) /. 1e6)));
  (* Registry deltas over the window. *)
  let delta = Telemetry.Registry.delta ~since:t0.registry t1.registry in
  let count name =
    match List.assoc_opt name delta with Some (Telemetry.Registry.Vcount n) -> n | _ -> 0
  in
  let lookups = ref 0 and hits = ref 0 in
  List.iter
    (fun (name, v) ->
      match v with
      | Telemetry.Registry.Vcount n when has_prefix "table." name && has_suffix ".hits" name ->
          let table = String.sub name 0 (String.length name - 5) in
          let total = n + count (table ^ ".misses") in
          hits := !hits + n;
          lookups := !lookups + total;
          if total > 0 then extra r (table ^ ".lookups_per_pkt") (per tp (float_of_int total)) "count"
      | _ -> ())
    delta;
  value r "table.lookups_per_pkt" (per tp (float_of_int !lookups));
  value r "table.hit_ratio" (per !lookups (float_of_int !hits));
  let passes =
    tp - count "cache.hit" + count "path.cpu_round_trips" + count "path.recircs" + count "path.resubmits"
  in
  value r "chip.passes_per_pkt" (per tp (float_of_int passes));
  value r "chip.recircs_per_pkt" (per tp (float_of_int (count "path.recircs")));
  extra r "chip.resubmits_per_pkt" (per tp (float_of_int (count "path.resubmits"))) "count";
  value r "runtime.punts_per_pkt" (per tp (float_of_int (count "path.cpu_punts")));
  value r "runtime.fast_pkt_ns_p50" (sorted_p a.Drive.fast_lat 50.0);
  if Stats.Buf.length a.Drive.punt_lat > 0 then
    extra r "runtime.punt_pkt_ns_p50" (sorted_p a.Drive.punt_lat 50.0) "ns";
  (* Spans: batch self time, handler calls, and the self-time balance
     (self time plus the union of the children covers the span). *)
  let sp = tr.spans in
  let self = Span.self_times sp in
  let batch_self = Stats.Buf.create 64 and worst = ref 0.0 in
  let handler = Hashtbl.create 4 in
  Array.iteri
    (fun i (covered, s) ->
      let d = Span.duration sp i in
      if d > 0 then worst := Float.max !worst (Float.abs (float_of_int (s + covered - d)) /. float_of_int d);
      match Span.name sp i with
      | "batch" -> Stats.Buf.add batch_self (float_of_int s /. 1e3)
      | name when has_prefix "handler." name ->
          let b =
            match Hashtbl.find_opt handler name with
            | Some b -> b
            | None ->
                let b = Stats.Buf.create 64 in
                Hashtbl.add handler name b;
                b
          in
          Stats.Buf.add b (float_of_int d /. 1e3)
      | _ -> ())
    self;
  value r "runtime.batch_self_us" (sorted_p batch_self 50.0);
  extra r "telemetry.span_balance_err_pct" (100.0 *. !worst) "%";
  extra r "telemetry.spans" (float_of_int (Span.length sp)) "count";
  let calls = Hashtbl.fold (fun _ b n -> n + Stats.Buf.length b) handler 0 in
  value r "handler.calls_per_pkt" (per tp (float_of_int calls));
  List.iter
    (fun (name, b) ->
      let s = Stats.Buf.sorted b in
      extra r (name ^ "_us_p50") (Stats.percentile s 50.0) "us";
      extra r (name ^ "_us_p99") (Stats.percentile s 99.0) "us")
    (List.sort compare (Hashtbl.fold (fun k b l -> (k, b) :: l) handler []));
  (* Flow cache and state store tallies. *)
  let c0 = t0.cache and c1 = t1.cache in
  let looked = c1.Flow_cache.hits - c0.Flow_cache.hits + (c1.Flow_cache.misses - c0.Flow_cache.misses) in
  value r "flow_cache.hit_ratio" (per looked (float_of_int (c1.Flow_cache.hits - c0.Flow_cache.hits)));
  value r "flow_cache.uncacheable_ratio"
    (per looked (float_of_int (c1.Flow_cache.uncacheable - c0.Flow_cache.uncacheable)));
  value r "flow_cache.evictions_per_kpkt" (kpkt (c1.Flow_cache.evictions - c0.Flow_cache.evictions));
  value r "flow_cache.invalidations_per_kpkt" (kpkt (c1.Flow_cache.invalidations - c0.Flow_cache.invalidations));
  extra r "flow_cache.stale_per_kpkt" (kpkt (c1.Flow_cache.stale - c0.Flow_cache.stale)) "count";
  if Stats.Buf.length a.Drive.hit_lat > 0 then begin
    extra r "flow_cache.hit_pkt_ns_p50" (sorted_p a.Drive.hit_lat 50.0) "ns";
    extra r "flow_cache.miss_pkt_ns_p50" (sorted_p a.Drive.miss_lat 50.0) "ns"
  end;
  let s0 = t0.store and s1 = t1.store in
  let store_hits = s1.State_store.hits - s0.State_store.hits in
  value r "state_store.occupancy" (float_of_int t1.occupancy);
  value r "state_store.hit_ratio"
    (per (store_hits + s1.State_store.misses - s0.State_store.misses) (float_of_int store_hits));
  value r "state_store.inserts_per_kpkt" (kpkt (s1.State_store.inserts - s0.State_store.inserts));
  value r "state_store.evictions_per_kpkt" (kpkt (s1.State_store.evictions - s0.State_store.evictions));
  (* Shards, GC and the cost of tracing itself. *)
  value r "shard.batch_ms_p50" (sorted_p a.Drive.batch_ms 50.0);
  value r "shard.startup_us_p50" (sorted_p a.Drive.startup_us 50.0);
  value r "shard.tail_us_p50" (sorted_p a.Drive.tail_us 50.0);
  value r "shard.busy_frac" (mean a.Drive.busy);
  value r "shard.skew" (mean a.Drive.skew);
  value r "gc.minor_collections_per_kpkt" (kpkt a.Drive.minor_gcs);
  value r "gc.major_collections_per_kpkt" (kpkt a.Drive.major_gcs);
  value r "gc.promoted_words_per_pkt" (per tp a.Drive.promoted_words);
  let rate (a : Drive.acc) = float_of_int a.Drive.packets /. float_of_int a.Drive.wall_ns in
  value r "telemetry.trace_overhead_pct" (100.0 *. ((rate m.acc /. rate a) -. 1.0));
  (* Layer probes on the sampled packets. *)
  let fresh () = fst (Deploy.setup w.kind { w.engine with Runtime.Engine.domains = 1; cache = emc }) in
  let p = Probes.run ~live:m.u ~fresh m.samples in
  extra r "probe.samples" (float_of_int (List.length m.samples)) "count";
  value r "pipelet.parse_ns" (Probes.p50 p.Probes.parse);
  value r "pipelet.parse_words" (Probes.mean_words p.Probes.parse);
  value r "pipelet.deparse_ns" (Probes.p50 p.Probes.deparse);
  value r "pipelet.deparse_words" (Probes.mean_words p.Probes.deparse);
  value r "table.exact_lookup_ns" (Probes.p50 p.Probes.exact);
  value r "table.lpm_lookup_ns" (Probes.p50 p.Probes.lpm);
  value r "table.ternary_lookup_ns" (Probes.p50 p.Probes.ternary);
  value r "chip.inject_ns_p50" (Probes.p50 p.Probes.inject);
  value r "chip.inject_ns_p99" (Probes.p99 p.Probes.inject);
  value r "chip.inject_words" (Probes.mean_words p.Probes.inject);
  value r "chip.replicate_ms" p.Probes.replicate_ms;
  value r "runtime.process_ns_p50" (Probes.p50 p.Probes.process);
  value r "runtime.process_words" (Probes.mean_words p.Probes.process);
  extra r "runtime.overhead_ns" (Probes.p50 p.Probes.process -. Probes.p50 p.Probes.inject) "ns";
  value r "flow_cache.hit_ns_p50" (Probes.p50 p.Probes.cache_hit);
  value r "flow_cache.miss_ns_p50" (Probes.p50 p.Probes.cache_miss);
  (* Control ops one at a time: the workload's own trace as replayed on
     the cold oracle, or else a seeded probe trace on a fresh
     deployment (only the ops whose table it has). *)
  let c =
    if replay.Probes.n > 0 then replay
    else begin
      let c = Probes.ctrl () in
      let chip = Runtime.chip (fst (Deploy.setup w.kind default)).Deploy.rt in
      List.iter
        (fun op ->
          match op with
          | Ctrl.Table (name, _) when Asic.Chip.find_table chip name = None -> ()
          | op -> Probes.apply_op c chip op)
        (Nflib.Catalog.fib_churn_trace ~seed ~n:(if smoke then 200 else 2000) ());
      c
    end
  in
  value r "ctrl.apply_ns_per_op" (per c.Probes.n (float_of_int c.Probes.total_ns));
  value r "ctrl.add_ns_p50" (sorted_p c.Probes.add 50.0);
  value r "ctrl.mod_ns_p50" (sorted_p c.Probes.md 50.0);
  value r "ctrl.del_ns_p50" (sorted_p c.Probes.del 50.0);
  value r "ctrl.ops_failed" (float_of_int c.Probes.failed)

let run ?tamper ~seed ~seconds ~trace ~smoke w =
  let m = measure ?tamper ~seed ~smoke ~seconds ~trace w in
  let checks, replay = check ?tamper ~seed ~smoke w m in
  let r = { values = []; extras = [] } in
  end_to_end r w m;
  (match (m.traced, m.window) with
  | Some tr, Some window -> per_layer r ~seed ~smoke w m tr window ~replay
  | _ -> ());
  {
    correct = List.for_all snd checks;
    checks;
    attempted = m.acc.Drive.packets + m.acc.Drive.ops;
    failed = m.acc.Drive.errors + m.acc.Drive.ops_failed;
    values = List.rev r.values;
    extras = List.rev r.extras;
    spans = Option.map (fun tr -> tr.spans) m.traced;
  }
