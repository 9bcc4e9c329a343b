type action = Reinject of Bytes.t | Consume
type handler = Sfc_header.t option -> Bytes.t -> action

(* The counter quadruple shared by per-packet outcomes and batch
   aggregates — one definition, added component-wise when batches (or
   shards) merge. *)
module Counters = struct
  type t = {
    cpu_round_trips : int;
    recircs : int;
    resubmits : int;
    latency_ns : float;
  }

  let zero =
    { cpu_round_trips = 0; recircs = 0; resubmits = 0; latency_ns = 0.0 }

  let add a b =
    {
      cpu_round_trips = a.cpu_round_trips + b.cpu_round_trips;
      recircs = a.recircs + b.recircs;
      resubmits = a.resubmits + b.resubmits;
      latency_ns = a.latency_ns +. b.latency_ns;
    }
end

(* The whole runtime configuration in one record, fixed at [create]:
   how packets execute (exec_mode), how much is observed (telemetry),
   how batches parallelize (domains), whether the exact-match flow
   cache fronts the pipeline (cache), and whether stateful NFs keep
   their state in bounded stores (state). *)
module Engine = struct
  type cache = Off | Emc of { capacity : int }

  (* The bounded state store behind stateful NFs' dynamic state —
     distinct constructor names from [cache] so unqualified knob
     construction stays unambiguous. *)
  type state = No_state | Bounded of { capacity : int; ttl_ns : int64 }

  type t = {
    exec_mode : Asic.Chip.exec_mode;
    telemetry : Telemetry.Level.t;
    domains : int;
    cache : cache;
    state : state;
  }

  let default =
    {
      exec_mode = Asic.Chip.Fast;
      telemetry = Telemetry.Level.Off;
      domains = 1;
      cache = Off;
      state = No_state;
    }

  let store_config = function
    | No_state -> None
    | Bounded { capacity; ttl_ns } -> Some { State_store.capacity; ttl_ns }
end

(* Counter refs resolved once at enable time, so the per-packet cost of
   Counters mode is plain [incr]s and two clock reads. *)
type obs_state = {
  o : Observe.t;
  rx : int ref array;  (* per Ethernet port *)
  tx : int ref array;
  c_emitted : int ref;
  c_dropped : int ref;
  c_to_cpu : int ref;
  c_errors : int ref;
  c_punts : int ref;  (* every to-CPU verdict, incl. resolved round trips *)
  c_round_trips : int ref;
  c_recircs : int ref;
  c_resubmits : int ref;
  c_cache_hit : int ref;
  c_cache_miss : int ref;
  c_ctrl_applied : int ref;
  c_ctrl_failed : int ref;
  c_suppressed : int ref;  (* per-packet errors beyond the batch log cap *)
  c_gc_minor : int ref;  (* cumulative minor words allocated in batches *)
  c_gc_major : int ref;
  h_ns : Telemetry.Histogram.t;
  h_alloc_w : Telemetry.Histogram.t;  (* words allocated per packet *)
}

type factory = Asic.Chip.t -> State_store.t option -> handler

type t = {
  compiled : Compiler.t;
  (* The chip this runtime injects into: the compiled chip for the
     primary runtime, a [Chip.replicate] clone for a shard runtime. *)
  chip : Asic.Chip.t;
  (* The one handler registry, shared with shard replicas: each NF's
     factory, applied to the chip and state store a handler serves. *)
  handlers : (string, factory) Hashtbl.t;
  (* [handlers] bound to this runtime's chip and shard-0 store. *)
  bound : (string, handler) Hashtbl.t;
  nf_ids : (int, string) Hashtbl.t;
  (* (path_id, service_index) -> reinjection pipeline, precomputed from
     the branching plan and the layout so per-CPU-reinject dispatch is a
     single hash probe instead of two linear scans. *)
  reinject : (int * int, int) Hashtbl.t;
  engine : Engine.t;
  obs : obs_state option;
  (* The exact-match flow cache fronting this runtime's chip; [None]
     when the engine's cache knob is [Off]. Shard replicas get their
     own cache over their own replica chip. *)
  cache : Flow_cache.t option;
  (* Bounded state stores, one per shard, persistent across batches
     (unlike replica chips); [||] when the engine's state knob is
     [No_state]. Shard d's replica runtime carries [stores.(d)] alone;
     the primary's handlers bind [stores.(0)]. *)
  mutable stores : State_store.t array;
}

let max_cpu_loops = 8

(* Where to reinject a CPU-handled packet so routing resumes correctly:
   prefer the ingress pipelet whose branching table knows the packet's
   (path, index) state; else the pipeline hosting the pending NF. Both
   sources are fixed once the chip is compiled, so the map is built
   here, at creation. *)
let build_reinject_map compiled =
  let reinject = Hashtbl.create 64 in
  List.iter
    (fun (c : Chain.t) ->
      List.iteri
        (fun index nf ->
          match Layout.location compiled.Compiler.layout nf with
          | Some id ->
              Hashtbl.replace reinject
                (c.Chain.path_id, index)
                id.Asic.Pipelet.pipeline
          | None -> ())
        c.Chain.nfs)
    compiled.Compiler.input.Compiler.chains;
  (* Branching entries override the chain fallback; iterate reversed so
     the plan's first entry for a (path, index) wins, as the old
     List.find_map did. *)
  List.iter
    (fun (e : Branching.entry) ->
      Hashtbl.replace reinject (e.Branching.path_id, e.Branching.index)
        e.Branching.pipeline)
    (List.rev compiled.Compiler.plan.Branching.branching);
  reinject

let chip t = t.chip

(* --- Control plane front door ---

   All control-plane table/register writes funnel through [apply_ops],
   applied to the primary chip between packet batches. Replica
   coherence is structural: parallel batches clone per-domain replicas
   from the primary at batch start, so a batch applied here is visible
   to every shard of the next packet batch. *)

let apply_ops t ops =
  let r = Ctrl.apply_all t.chip ops in
  (match (t.obs, r) with
  | Some os, Ok k -> os.c_ctrl_applied := !(os.c_ctrl_applied) + k
  | Some os, Error _ -> incr os.c_ctrl_failed
  | None, _ -> ());
  r

(* An observer over [chip] at [level], with its counter refs resolved. *)
let observe level chip =
  let o = Observe.create level in
  Observe.attach_observer o chip;
  let reg = Observe.registry o in
  let c = Telemetry.Registry.counter reg in
  let n_ports = Asic.Spec.n_eth_ports (Asic.Chip.spec chip) in
  (* Bound one by one so registration (= display) order is sensible:
     record fields would evaluate right-to-left. *)
  let c_emitted = c "verdict.emitted" in
  let c_dropped = c "verdict.dropped" in
  let c_to_cpu = c "verdict.to_cpu" in
  let c_errors = c "verdict.error" in
  let c_punts = c "path.cpu_punts" in
  let c_round_trips = c "path.cpu_round_trips" in
  let c_recircs = c "path.recircs" in
  let c_resubmits = c "path.resubmits" in
  let c_cache_hit = c "cache.hit" in
  let c_cache_miss = c "cache.miss" in
  let c_ctrl_applied = c "ctrl.ops_applied" in
  let c_ctrl_failed = c "ctrl.batches_failed" in
  let c_suppressed = c "batch.errors_suppressed" in
  let c_gc_minor = c "gc.minor_words" in
  let c_gc_major = c "gc.major_words" in
  let h_ns = Telemetry.Registry.histogram reg "runtime.ns_per_packet" in
  let h_alloc_w =
    Telemetry.Registry.histogram reg "runtime.alloc_words_per_packet"
  in
  let rx = Array.init n_ports (fun p -> c (Printf.sprintf "port.%d.rx" p)) in
  let tx = Array.init n_ports (fun p -> c (Printf.sprintf "port.%d.tx" p)) in
  {
    o;
    rx;
    tx;
    c_emitted;
    c_dropped;
    c_to_cpu;
    c_errors;
    c_punts;
    c_round_trips;
    c_recircs;
    c_resubmits;
    c_cache_hit;
    c_cache_miss;
    c_ctrl_applied;
    c_ctrl_failed;
    c_suppressed;
    c_gc_minor;
    c_gc_major;
    h_ns;
    h_alloc_w;
  }

let primary_store t =
  if Array.length t.stores = 0 then None else Some t.stores.(0)

let bind t nf factory =
  Hashtbl.replace t.bound nf (factory t.chip (primary_store t))

(* Re-bind every registered factory — run whenever the store array is
   replaced (and once per replica), so no handler holds a dropped
   store or another runtime's chip. [to_seq] only reads the shared
   registry ([Hashtbl.iter] flips a traversal flag in it), so shard
   replicas may bind on several domains at once. *)
let bind_handlers t =
  Seq.iter (fun (nf, factory) -> bind t nf factory) (Hashtbl.to_seq t.handlers)

(* The one shard lifecycle: bring the store array to [n] shards under
   the engine's state knob. An unchanged layout keeps the stores
   (entries, stats, clock) alive; a different shard count re-homes
   every entry to its new owner shard. *)
let reshard t n =
  match Engine.store_config t.engine.Engine.state with
  | Some cfg when Array.length t.stores <> n ->
      let fresh = Array.init n (fun _ -> State_store.create cfg) in
      State_store.migrate ~from:t.stores ~into:fresh;
      t.stores <- fresh;
      bind_handlers t
  | Some _ | None -> ()

(* The one constructor, behind [create] and [replica_of]: the engine
   is fixed here, so the observer, the cache and — when [stores] is
   empty — the stores are built once, in that order after the exec
   mode. *)
let make ~compiled ~chip ~handlers ~nf_ids ~reinject ~stores engine =
  let engine = { engine with Engine.domains = max 1 engine.Engine.domains } in
  Asic.Chip.set_exec_mode chip engine.Engine.exec_mode;
  let obs =
    match engine.Engine.telemetry with
    | Telemetry.Level.Off -> None
    | (Telemetry.Level.Counters | Telemetry.Level.Journeys) as level ->
        Some (observe level chip)
  in
  let cache =
    match engine.Engine.cache with
    | Engine.Off -> None
    | Engine.Emc { capacity } -> Some (Flow_cache.create ~capacity chip)
  in
  let t =
    {
      compiled;
      chip;
      handlers;
      bound = Hashtbl.create 8;
      nf_ids;
      reinject;
      engine;
      obs;
      cache;
      stores;
    }
  in
  reshard t engine.Engine.domains;
  bind_handlers t;
  t

let create ?(engine = Engine.default) compiled =
  make ~compiled ~chip:compiled.Compiler.chip ~handlers:(Hashtbl.create 8)
    ~nf_ids:(Hashtbl.create 8) ~reinject:(build_reinject_map compiled)
    ~stores:[||] engine

let flow_cache t = t.cache
let state_stores t = t.stores
let state_store t = primary_store t

let advance_state_time t ns =
  Array.fold_left (fun acc s -> acc + State_store.advance s ns) 0 t.stores

let on_to_cpu_state t nf factory =
  Hashtbl.replace t.handlers nf factory;
  bind t nf factory

let register_nf_id t nf id = Hashtbl.replace t.nf_ids id nf

let default_nf_id name =
  let b = Bytes.of_string name in
  let h =
    Int64.to_int (Netpkt.Bytes_util.crc16 b ~off:0 ~len:(Bytes.length b))
  in
  if h = 0 then 1 else h

let telemetry t = Option.map (fun os -> os.o) t.obs

type outcome = {
  verdict : Asic.Chip.verdict;
  counters : Counters.t;
  mirrored : (int * Bytes.t) list;
}

(* A CPU round trip reads the SFC header once, to dispatch: the mark is
   cleared in place and the resume point is read from two fields, each
   by position. An SFC frame is one long enough for Ethernet and the
   header, with the SFC ethertype at bytes 12-13. *)
let sfc_off = Netpkt.Eth.size

let is_sfc frame =
  Bytes.length frame >= sfc_off + Sfc_header.byte_size
  && Netpkt.Bytes_util.get_uint16 frame 12 = Netpkt.Eth.ethertype_sfc

let decode_sfc frame =
  if is_sfc frame then Result.to_option (Sfc_header.decode frame ~off:sfc_off)
  else None

let clear_cpu_mark frame =
  let frame = Bytes.copy frame in
  if is_sfc frame then Sfc_header.clear_cpu_mark frame ~off:sfc_off;
  frame

let reinject_pipeline t frame =
  let default = t.compiled.Compiler.input.Compiler.entry_pipeline in
  if not (is_sfc frame) then default
  else
    let key = Sfc_header.decode_path frame ~off:sfc_off in
    match Hashtbl.find_opt t.reinject key with Some p -> p | None -> default

let find_handler t sfc =
  match sfc with
  | None -> None
  | Some hdr -> (
      match Sfc_header.find_context hdr Sfc_header.ctx_key_cpu_reason with
      | None -> None
      | Some nf_id -> (
          match Hashtbl.find_opt t.nf_ids nf_id with
          | None -> None
          | Some nf -> Hashtbl.find_opt t.bound nf))

(* The journey's flow key: the canonical 5-tuple rendering when the
   frame parses, else the arrival port — same fallback the shard hash
   uses, so unparseable traffic aggregates per port. *)
let flow_key ~in_port frame =
  match Netpkt.Pkt.five_tuple_of_frame frame with
  | Some ft -> Format.asprintf "%a" Netpkt.Flow.pp_five_tuple ft
  | None -> Printf.sprintf "port:%d" in_port

(* A packet's chip walks and CPU round trips, from its first injection
   to its verdict. [mirrored_rev] accumulates reversed (rev_append per
   pass, one final [List.rev]) so an N-round flow costs O(total)
   instead of the quadratic [acc @ round] append. [c] is the packet's
   one set of totals: completed CPU round trips, and the recircs,
   resubmits and latency of every completed chip walk — what the
   outcome reports, and what the journey reports whether the packet
   succeeds or fails. The handler runs at most [max_cpu_loops] times —
   the bound is exact, checked before each dispatch. A top-level
   function, so a cache hit, which never walks, builds no closure. *)
let rec walk t ~in_port ~hops frame (c : Counters.t) mirrored_rev first =
  let injected =
    if first then Asic.Chip.inject t.chip ~in_port frame
    else
      Asic.Chip.inject_cpu t.chip
        ~pipeline:(reinject_pipeline t frame)
        frame
  in
  match injected with
  | Error e -> Error (e, c)
  | Ok r -> (
      (match hops with
      | Some l -> l := List.rev_append r.Asic.Chip.hops !l
      | None -> ());
      let c =
        {
          c with
          Counters.recircs = c.Counters.recircs + r.Asic.Chip.recircs;
          resubmits = c.Counters.resubmits + r.Asic.Chip.resubmits;
          latency_ns = c.Counters.latency_ns +. r.Asic.Chip.latency_ns;
        }
      in
      let mirrored_rev = List.rev_append r.Asic.Chip.mirrored mirrored_rev in
      let finish () =
        Ok
          {
            verdict = r.Asic.Chip.verdict;
            counters = c;
            mirrored = List.rev mirrored_rev;
          }
      in
      match r.Asic.Chip.verdict with
      | Asic.Chip.To_cpu bytes -> (
          (match t.obs with Some os -> incr os.c_punts | None -> ());
          let sfc = decode_sfc bytes in
          match find_handler t sfc with
          | None -> finish ()
          | Some _ when c.Counters.cpu_round_trips >= max_cpu_loops ->
              Error
                ( Printf.sprintf "Runtime.process: exceeded %d CPU loops"
                    max_cpu_loops,
                  c )
          | Some handler -> (
              match handler sfc bytes with
              | Consume -> finish ()
              | Reinject bytes ->
                  walk t ~in_port ~hops bytes
                    {
                      c with
                      Counters.cpu_round_trips = c.Counters.cpu_round_trips + 1;
                    }
                    mirrored_rev false))
      | Asic.Chip.Emitted _ | Asic.Chip.Dropped -> finish ())

let process t ~in_port frame =
  let hops =
    match t.obs with
    | Some os when Telemetry.Level.journeys_on (Observe.level os.o) ->
        Some (ref [])
    | _ -> None
  in
  let t0 =
    match t.obs with
    | None -> 0L
    | Some os ->
        if in_port >= 0 && in_port < Array.length os.rx then incr os.rx.(in_port);
        Telemetry.Tclock.now_ns ()
  in
  let res =
    match t.cache with
    | None -> walk t ~in_port ~hops frame Counters.zero [] true
    | Some c -> (
        match Flow_cache.lookup c ~in_port frame with
        | Some h ->
            (* Validated hit: the memoized verdict stands in for the
               whole pipeline run. Cacheable outcomes have zero path
               counters and no mirrors by construction, so this outcome
               equals what the re-run would have produced. *)
            (match t.obs with Some os -> incr os.c_cache_hit | None -> ());
            Ok
              {
                verdict = h.Flow_cache.verdict;
                counters =
                  {
                    Counters.zero with
                    Counters.latency_ns = h.Flow_cache.latency_ns;
                  };
                mirrored = [];
              }
        | None ->
            (match t.obs with Some os -> incr os.c_cache_miss | None -> ());
            let res = walk t ~in_port ~hops frame Counters.zero [] true in
            (match res with
            | Ok o ->
                Flow_cache.commit c ~frame ~verdict:o.verdict
                  ~cpu_round_trips:o.counters.Counters.cpu_round_trips
                  ~recircs:o.counters.Counters.recircs
                  ~resubmits:o.counters.Counters.resubmits
                  ~mirrored:(o.mirrored <> [])
                  ~latency_ns:o.counters.Counters.latency_ns
            | Error _ -> Flow_cache.abort c);
            res)
  in
  (match t.obs with
  | None -> ()
  | Some os -> (
      let wall = Int64.to_int (Int64.sub (Telemetry.Tclock.now_ns ()) t0) in
      Telemetry.Histogram.observe os.h_ns wall;
      (match res with
      | Error (e, _) ->
          incr os.c_errors;
          incr
            (Telemetry.Registry.counter (Observe.registry os.o)
               ("error." ^ Observe.error_class e))
      | Ok o -> (
          os.c_round_trips :=
            !(os.c_round_trips) + o.counters.Counters.cpu_round_trips;
          os.c_recircs := !(os.c_recircs) + o.counters.Counters.recircs;
          os.c_resubmits := !(os.c_resubmits) + o.counters.Counters.resubmits;
          match o.verdict with
          | Asic.Chip.Emitted { port; _ } ->
              incr os.c_emitted;
              if port >= 0 && port < Array.length os.tx then incr os.tx.(port)
          | Asic.Chip.Dropped -> incr os.c_dropped
          | Asic.Chip.To_cpu _ -> incr os.c_to_cpu));
      match hops with
      | None -> ()
      | Some l ->
          let verdict, (c : Counters.t) =
            match res with
            | Ok o -> (Observe.verdict_string o.verdict, o.counters)
            | Error (e, c) -> ("error:" ^ e, c)
          in
          Observe.record_journey os.o
            {
              Telemetry.Journey.id = Observe.next_journey_id os.o;
              flow = flow_key ~in_port frame;
              in_port;
              verdict;
              cpu_round_trips = c.Counters.cpu_round_trips;
              recircs = c.Counters.recircs;
              resubmits = c.Counters.resubmits;
              latency_ns = c.Counters.latency_ns;
              wall_ns = wall;
              hops = List.rev !l;
            }));
  Result.map_error fst res

type batch_stats = {
  packets : int;
  emitted : int;
  dropped : int;
  to_cpu : int;
  errors : int;
  counters : Counters.t;
  digest : int64;
  error_log : (int * string) list;
  suppressed : int;
}

let max_error_log = 8

let empty_stats =
  {
    packets = 0;
    emitted = 0;
    dropped = 0;
    to_cpu = 0;
    errors = 0;
    counters = Counters.zero;
    digest = 0L;
    error_log = [];
    suppressed = 0;
  }

(* The digest folds a verdict tag, the egress port and the full output
   frame of every packet — in batch order — through CRC-32, so two runs
   agree on the digest iff they produced byte-identical outputs in the
   same order. The head is the tag byte then the port as a big-endian
   int32, folded from an int: no buffer, no boxed [Int64] per packet. *)
let fold_head acc tag port =
  Netpkt.Bytes_util.crc32_fold_be acc ~bytes:5
    ((tag lsl 32) lor (port land 0xFFFFFFFF))

let fold_frame acc b = Netpkt.Bytes_util.crc32_fold acc b ~off:0 ~len:(Bytes.length b)

(* Minor and direct-major words allocated so far on this domain
   (major words include promotions, which the minor count already
   holds — subtract them so the pair sums to total words allocated).
   [Gc.minor_words] includes the current minor heap, and [Gc.counters]
   the domain's direct major allocations since its last slice:
   [quick_stat]'s counts move only at a collection, so they would bill
   a batch for words allocated before it and miss its own. *)
let gc_words () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words (), major -. promoted)

let process_batch ?each t pkts =
  (* Sequential handlers serve every flow from the shard-0 store, so
     the stores must be one shard here. *)
  reshard t 1;
  (* Allocation accounting brackets the packet loop (after the
     re-shard, so store migration is not billed to packets). The
     per-packet figure includes whatever observation itself allocates —
     that is the point: it is the number the zero-alloc work must
     drive down at [Off], and the overhead it pays above it. *)
  let gc0 = match t.obs with None -> (0.0, 0.0) | Some _ -> gc_words () in
  (* The tallies live in locals that no closure captures, so the
     compiler keeps them out of the heap (the latency sum unboxed);
     [batch_stats] is built once, after the loop. *)
  let packets = ref 0 and emitted = ref 0 and dropped = ref 0 in
  let to_cpu = ref 0 and errors = ref 0 and error_log = ref [] in
  let round_trips = ref 0 and recircs = ref 0 and resubmits = ref 0 in
  let latency_ns = ref 0.0 and digest = ref 0 in
  let pending = ref pkts in
  while !pending != [] do
    match !pending with
    | [] -> ()
    | (in_port, frame) :: rest -> (
        pending := rest;
        let i = !packets in
        incr packets;
        let res = process t ~in_port frame in
        (match each with Some f -> f i res | None -> ());
        match res with
        | Error e ->
            (* Keep the first few messages (with the offending in_port)
               instead of swallowing them into a bare count: a batch
               that "just" reports errors=3 is undebuggable. *)
            if !errors < max_error_log then error_log := (in_port, e) :: !error_log;
            incr errors;
            digest := fold_frame (fold_head !digest 4 0) (Bytes.unsafe_of_string e)
        | Ok o -> (
            let c = o.counters in
            round_trips := !round_trips + c.Counters.cpu_round_trips;
            recircs := !recircs + c.Counters.recircs;
            resubmits := !resubmits + c.Counters.resubmits;
            latency_ns := !latency_ns +. c.Counters.latency_ns;
            match o.verdict with
            | Asic.Chip.Emitted { port; frame } ->
                incr emitted;
                digest := fold_frame (fold_head !digest 1 port) frame
            | Asic.Chip.Dropped ->
                incr dropped;
                digest := fold_head !digest 2 0
            | Asic.Chip.To_cpu frame ->
                incr to_cpu;
                digest := fold_frame (fold_head !digest 3 0) frame))
  done;
  let suppressed = !errors - List.length !error_log in
  (match t.obs with
  | None -> ()
  | Some os ->
      let minor0, major0 = gc0 in
      let minor1, major1 = gc_words () in
      let minor_d = minor1 -. minor0 and major_d = major1 -. major0 in
      os.c_gc_minor := !(os.c_gc_minor) + max 0 (int_of_float minor_d);
      os.c_gc_major := !(os.c_gc_major) + max 0 (int_of_float major_d);
      if !packets > 0 then
        Telemetry.Histogram.observe os.h_alloc_w
          (max 0
             (int_of_float ((minor_d +. major_d) /. float_of_int !packets)));
      if suppressed > 0 then
        os.c_suppressed := !(os.c_suppressed) + suppressed);
  {
    packets = !packets;
    emitted = !emitted;
    dropped = !dropped;
    to_cpu = !to_cpu;
    errors = !errors;
    counters =
      {
        Counters.cpu_round_trips = !round_trips;
        recircs = !recircs;
        resubmits = !resubmits;
        latency_ns = !latency_ns;
      };
    digest = Int64.of_int !digest;
    error_log = List.rev !error_log;
    suppressed;
  }

(* --- Sharded parallel execution --- *)

(* Flow-affinity shard assignment: the CRC-32 of the *canonicalized*
   outer 5-tuple, mod the domain count — every packet of a connection,
   in either direction, lands on the same domain, in arrival order.
   The symmetry matters for NAT/LB: the reply flow (B -> A) must see
   the bindings the forward flow (A -> B) installed, so both must share
   a shard; hashing the directed tuple (the old behaviour) split them.
   Frames with no parseable IPv4 5-tuple shard by input port, which at
   least keeps a port's unparseable traffic ordered. *)
let shard_of_packet ~domains in_port frame =
  if domains <= 1 then 0
  else
    match Netpkt.Pkt.five_tuple_of_frame frame with
    | Some ft ->
        Int64.to_int
          (Int64.rem (Netpkt.Flow.hash_five_tuple_symmetric ft) (Int64.of_int domains))
    | None -> (in_port land max_int) mod domains

(* A shard runtime: a chip replica that shares nothing it writes, the
   same compiled metadata (read-only during a batch), the handler
   registry bound to the replica's table handles, and — per the
   parent's engine — a private observer and flow cache armed on the
   replica chip. Replica chips die with the batch (released at the
   join), but shard d's state store carries across batches: a
   punt-installed session outlives the replica that installed it, and
   its eviction callback (bound to this batch's replica table) keeps
   the live chip in step. Building one only reads [t] and writes shard
   d's store, so shard d builds its own replica on its own domain. *)
let replica_of t d =
  make ~compiled:t.compiled ~chip:(Asic.Chip.replicate t.chip)
    ~handlers:t.handlers ~nf_ids:t.nf_ids ~reinject:t.reinject
    ~stores:(if Array.length t.stores = 0 then [||] else [| t.stores.(d) |])
    { t.engine with Engine.domains = 1 }

(* Shard-major merge. The combined digest chains the per-shard digests
   in shard order through CRC-32: deterministic for a fixed [domains]
   (shard assignment and intra-shard order are both deterministic), and
   different from the sequential digest by construction — cross-count
   equivalence is checked on totals and per-packet outcomes instead. *)
let merge_shards per_shard =
  let digest =
    List.fold_left
      (fun acc s ->
        let b = Bytes.create 8 in
        Bytes.set_int64_be b 0 s.digest;
        Netpkt.Bytes_util.crc32 ~init:acc b ~off:0 ~len:8)
      0L per_shard
  in
  let merged =
    List.fold_left
      (fun acc s ->
        {
          packets = acc.packets + s.packets;
          emitted = acc.emitted + s.emitted;
          dropped = acc.dropped + s.dropped;
          to_cpu = acc.to_cpu + s.to_cpu;
          errors = acc.errors + s.errors;
          counters = Counters.add acc.counters s.counters;
          digest = 0L;
          error_log = acc.error_log @ s.error_log;
          suppressed = 0;
        })
      empty_stats per_shard
  in
  let error_log =
    List.filteri (fun i _ -> i < max_error_log) merged.error_log
  in
  (* Suppressed = everything the surviving log does not show, whether a
     shard capped it locally or the shard-order concatenation did. *)
  {
    merged with
    digest;
    error_log;
    suppressed = merged.errors - List.length error_log;
  }

let process_batch_parallel ?domains ?each t pkts =
  let domains =
    max 1 (match domains with Some d -> d | None -> t.engine.Engine.domains)
  in
  if domains = 1 then
    (* The sequential path, bit-identical to [process_batch] — including
       its state persistence on the primary chip. *)
    process_batch ?each t pkts
  else begin
    (* Re-home the entries first so shard d's packets meet shard d's
       state (and no two domains ever share a store). *)
    reshard t domains;
    let buckets = Array.make domains [] in
    List.iteri
      (fun i (in_port, frame) ->
        let s = shard_of_packet ~domains in_port frame in
        buckets.(s) <- (i, in_port, frame) :: buckets.(s))
      pkts;
    let shards = Array.map (fun l -> Array.of_list (List.rev l)) buckets in
    (* Filled by task d, read after [Dpool.run] has joined every domain. *)
    let replicas = Array.make domains None in
    let tasks =
      List.init domains (fun d () ->
          let rt = replica_of t d in
          (* The replica lives for the whole batch, so the first minor
             collection after this point copies it to the major heap —
             and minor collections stop every domain. Collect now, while
             this shard has no packet in flight, rather than in the
             middle of some shard's packets. *)
          Gc.minor ();
          replicas.(d) <- Some rt;
          let sh = shards.(d) in
          let each =
            (* Remap the in-shard index back to the packet's position in
               the caller's list. *)
            Option.map
              (fun f j r ->
                let i, _, _ = sh.(j) in
                f i r)
              each
          in
          process_batch ?each rt
            (Array.to_list (Array.map (fun (_, p, f) -> (p, f)) sh)))
    in
    let per_shard = Dpool.run ~domains tasks in
    let replicas = Array.map Option.get replicas in
    Array.iter
      (fun rt ->
        match (t.obs, rt.obs) with
        | Some os, Some ros ->
            (* Table tallies fold into the primary chip's live stats (so
               a later snapshot's sync_tables sees them). Flow affinity
               means a flow's INT summary lives on exactly one shard, so
               the observer merge never double-counts a flow. *)
            Asic.Chip.merge_stats ~into:t.chip rt.chip;
            Observe.merge ~into:os.o ros.o
        | _ -> ())
      replicas;
    (match t.cache with
    | None -> ()
    | Some root ->
        (* Entries die with the replicas; the tallies fold back so
           [flow_cache] keeps runtime-wide hit/miss accounting. *)
        Array.iter
          (fun rt ->
            Option.iter (fun rc -> Flow_cache.merge_stats ~into:root rc) rt.cache)
          replicas);
    (* Folded: the replicas give up the table bodies they still share,
       so the primary's next control op writes in place, uncopied. *)
    Array.iter (fun rt -> Asic.Chip.release rt.chip) replicas;
    merge_shards per_shard
  end

(* --- Snapshot front door --- *)

let int_sink t = Option.map (fun os -> Observe.int_sink os.o) t.obs

(* Absolute gauges (cache occupancy, store tallies, INT flow counts) are
   written into the registry only here, at snapshot time — never on the
   hot path and never on a shard replica, so [Registry.merge] (which
   sums) cannot double-count them when parallel batches fold replica
   registries back. *)
let sync_gauges t =
  match t.obs with
  | None -> ()
  | Some os ->
      let reg = Observe.registry os.o in
      let set name v = Telemetry.Registry.counter reg name := v in
      (match t.cache with
      | None -> ()
      | Some c ->
          let s = Flow_cache.stats c in
          set "cache.occupancy" (Flow_cache.length c);
          set "cache.capacity" (Flow_cache.capacity c);
          set "cache.inserts" s.Flow_cache.inserts;
          set "cache.evictions" s.Flow_cache.evictions;
          set "cache.invalidations" s.Flow_cache.invalidations;
          set "cache.uncacheable" s.Flow_cache.uncacheable;
          List.iter
            (fun (reason, n) -> set ("cache.uncacheable." ^ reason) n)
            (Flow_cache.uncacheable_by_reason c));
      (* State-store gauges: per-table tallies summed across the shard
         stores in shard order — the deterministic fold-back; written
         only here (primary, snapshot time), like every other gauge. *)
      if Array.length t.stores > 0 then begin
        set "state.stores" (Array.length t.stores);
        set "state.capacity" (State_store.config t.stores.(0)).State_store.capacity;
        List.iter
          (fun (name, occupancy, (s : State_store.table_stats)) ->
            let g metric v = set (Printf.sprintf "state.%s.%s" name metric) v in
            g "occupancy" occupancy;
            g "hits" s.State_store.hits;
            g "misses" s.State_store.misses;
            g "inserts" s.State_store.inserts;
            g "evictions" s.State_store.evictions;
            g "expirations" s.State_store.expirations)
          (State_store.totals t.stores)
      end;
      let sink = Observe.int_sink os.o in
      if Telemetry.Int_report.pushed sink > 0 then begin
        set "int.flows" (Telemetry.Int_report.flows sink);
        set "int.postcards" (Telemetry.Int_report.pushed sink);
        set "int.dropped_flows" (Telemetry.Int_report.dropped_flows sink)
      end

let snapshot t =
  match t.obs with
  | None -> None
  | Some os ->
      sync_gauges t;
      Some (Observe.snapshot os.o t.chip)
