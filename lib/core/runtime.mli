(** Minimal control plane and batch engine: NFs punt packets to the CPU
    by setting the SFC header's to-CPU flag (Fig. 4's [toCpu] default
    action); the runtime dispatches to a per-NF handler — which
    typically installs a table entry — and reinjects the packet into
    the data plane, looping until the packet is emitted or dropped.
    Batches run sequentially ({!process_batch}) or sharded across OCaml
    domains onto private chip replicas ({!process_batch_parallel}). *)

type action =
  | Reinject of Bytes.t  (** put (possibly rewritten) bytes back into the
                             entry pipeline's ingress *)
  | Consume  (** the control plane keeps the packet *)

type handler = Sfc_header.t option -> Bytes.t -> action
(** Receives the decoded SFC header (when present) and the raw frame. *)

(** The counter quadruple every packet path accumulates — shared by
    {!outcome} (one packet) and {!batch_stats} (a batch), merged
    component-wise. *)
module Counters : sig
  type t = {
    cpu_round_trips : int;
    recircs : int;
    resubmits : int;
    latency_ns : float;  (** modelled data-plane latency (summed) *)
  }
end

(** The runtime's whole configuration as one value, fixed at {!create}:
    a runtime with another engine is another runtime. *)
module Engine : sig
  (** The exact-match flow cache fronting the pipeline. [Emc] memoizes
      each flow's whole-chain verdict after its first packet (see
      {!Flow_cache}); [Off] (the default) is the uncached pipeline,
      byte-identical to a runtime without the cache knob. *)
  type cache = Off | Emc of { capacity : int }

  (** The bounded state store behind stateful NFs' dynamic state (see
      {!State_store}): [Bounded] gives the runtime one store per shard
      — each NF's per-flow tables capacity-bounded with LRU eviction
      and TTL aging on the runtime's logical clock
      ({!advance_state_time}); [No_state] (the default) is today's
      unbounded behaviour, byte-identical to a runtime without the
      knob. *)
  type state = No_state | Bounded of { capacity : int; ttl_ns : int64 }

  type t = {
    exec_mode : Asic.Chip.exec_mode;  (** default [Fast] *)
    telemetry : Telemetry.Level.t;
        (** default [Off]. [Counters] and [Journeys] instrument the
            runtime and its chip: per-port rx/tx, verdict and
            packet-path counters, error-class counters, an
            ns-per-packet histogram ([runtime.ns_per_packet], two
            monotonic-clock reads around {!process}), control-op
            counters ([ctrl.ops_applied], [ctrl.batches_failed]) and —
            at [Journeys] — a per-packet journey pushed into a flight
            recorder of {!Observe.default_ring_capacity} entries. *)
    domains : int;
        (** default shard count for {!process_batch_parallel} when its
            [?domains] is omitted; clamped to >= 1 *)
    cache : cache;  (** default [Off] *)
    state : state;  (** default [No_state] *)
  }

  val default : t
end

type t

val create : ?engine:Engine.t -> Compiler.t -> t
(** A runtime over the compiled chip, configured per [engine]
    (default {!Engine.default}): it sets the chip's exec mode and
    builds the observer, the flow cache and the state stores once. *)

val flow_cache : t -> Flow_cache.t option
(** The live flow cache when the engine's [cache] knob is [Emc] —
    for stats, clearing, and tests. *)

val state_store : t -> State_store.t option
(** The primary (shard-0) state store when the engine's [state] knob
    is [Bounded] — what sequential-path handlers bind. *)

val state_stores : t -> State_store.t array
(** All shard stores in shard order ([||] when [No_state]). Persistent
    across batches — unlike replica chips — so punt-installed state
    outlives the parallel batch that created it. *)

val advance_state_time : t -> int64 -> int
(** Advance every shard store's logical clock by [ns] and sweep TTL
    expirations (the control plane's aging tick). An expired entry's
    eviction callback deletes its chip entry, as a capacity eviction
    does. Returns the number of entries expired. Time
    never advances implicitly, so runs that tick at the same points
    age identically — digests stay comparable. *)

val on_to_cpu_state : t -> string -> (Asic.Chip.t -> State_store.t option -> handler) -> unit
(** Register the handler factory for an NF (keyed by the
    [ctx_key_cpu_reason] context value carrying the NF's id). The
    factory receives the chip that punted and the state store serving
    that chip's shard ([None] when the engine's [state] knob is
    [No_state]): this runtime's chip and primary store now, each
    replica chip with shard [d]'s store when a parallel batch spins up
    shard runtimes, and again whenever the store array is replaced —
    so a handler that installs into a table (found via
    {!Asic.Chip.find_table}) always installs into the chip that
    punted the packet, and can record per-flow state in the store
    (and mirror the store's evictions into its chip table) without
    ever holding a stale handle. A handler that needs neither ignores
    both arguments. *)

val register_nf_id : t -> string -> int -> unit
(** Associate an NF name with the id it writes into the CPU-reason
    context slot. *)

val default_nf_id : string -> int
(** A stable id derived from the NF name (CRC-16 of the name, nonzero) —
    what the bundled NFs use. *)

val clear_cpu_mark : Bytes.t -> Bytes.t
(** Clear the CPU mark in a frame's SFC header — a handler must do this
    before reinjecting, or the packet bounces straight back. For a frame
    of at least 34 bytes with the SFC ethertype, it clears the to-CPU
    bit, the header's 9 pad bits and the key and value of every context
    slot keyed {!Sfc_header.ctx_key_cpu_reason}, in place in a copy:
    the bytes re-encoding the decoded header would give. Every other
    frame comes back as an unchanged copy. Always a fresh buffer; the
    argument is not modified. *)

type outcome = {
  verdict : Asic.Chip.verdict;
  counters : Counters.t;  (** aggregated over all data-plane passes *)
  mirrored : (int * Bytes.t) list;
      (** analysis-port copies across all data-plane passes *)
}

val process : t -> in_port:int -> Bytes.t -> (outcome, string) result
(** Inject a frame and resolve any to-CPU round trips. Counters
    aggregate over all data-plane passes. The handler is dispatched at
    most {!max_cpu_loops} times — exactly; a packet still punting after
    that is an error. At [Journeys] the packet's journey holds the hops
    of every chip walk it made, in order, and the same totals as its
    outcome; a failed packet's journey reads ["error:<msg>"] with the
    totals and hops of the walks it completed. *)

val max_cpu_loops : int
val chip : t -> Asic.Chip.t

(** {2 Control plane} *)

val apply_ops : t -> Ctrl.op list -> (int, string) result
(** The one door for control-plane writes: apply a batch of typed
    {!Ctrl} ops, addressed by composed object name, to the primary
    chip now, in order, stopping at the first failure ([Ok n] = all
    [n] applied). The caller must be between packet batches; epoch
    bumps make every change visible to the flow cache, and the next
    parallel batch replicates the updated state to all shards. With
    telemetry on, an applied batch adds its ops to [ctrl.ops_applied]
    and a failed one counts in [ctrl.batches_failed]. *)

(** {2 Telemetry} *)

val telemetry : t -> Observe.t option

val int_sink : t -> Telemetry.Int_report.t option
(** The INT per-flow aggregate, when telemetry is on. Populated at
    [Journeys]: every processed packet's journey is folded into its
    flow's summary (keyed by the 5-tuple) as it enters the flight
    recorder. Shard aggregates merge back after parallel batches, so
    its counts cover every packet — not only the journeys the flight
    recorder still holds. *)

val snapshot : t -> Telemetry.Registry.snapshot option
(** The observability front door: sync the chip's live table tallies
    and the absolute gauges — cache occupancy/capacity and validation
    tallies ([cache.*]), store tallies ([state.*]), INT sink sizes
    ([int.*]) — into the registry, then snapshot it. [None] when
    telemetry is [Off]. Gauges are written only here (never on
    the hot path, never on shard replicas), so parallel registry
    merges cannot double-count them; feed the result to
    {!Telemetry.Export.prometheus} / {!Telemetry.Export.json_lines}. *)

(** {2 Batches} *)

type batch_stats = {
  packets : int;
  emitted : int;
  dropped : int;
  to_cpu : int;  (** packets the control plane consumed or nobody handled *)
  errors : int;
  counters : Counters.t;
  digest : int64;
      (** sequential: order-sensitive CRC-32 over every packet's verdict
          tag, egress port and output frame — byte-identical runs agree
          on it. Parallel (domains >= 2): the per-shard digests chained
          in shard order (see {!process_batch_parallel}). *)
  error_log : (int * string) list;
      (** the first {!max_error_log} per-packet errors, oldest first, as
          [(in_port, message)] — previously only the count survived *)
  suppressed : int;
      (** errors beyond the log cap: [errors - List.length error_log],
          so a capped log is visible as such instead of silently
          truncating. Also accumulated into the
          [batch.errors_suppressed] counter when telemetry is on. *)
}

val max_error_log : int

val process_batch :
  ?each:(int -> (outcome, string) result -> unit) ->
  t ->
  (int * Bytes.t) list ->
  batch_stats
(** Run [(in_port, frame)] packets through {!process} in order,
    aggregating counters. Per-packet errors are counted (and folded into
    the digest), not raised. [each] observes every packet's result with
    its position in the input list. Under a [Bounded] state knob the
    stores are first re-sharded to one ({!State_store.migrate}), since
    the sequential handlers serve every flow from the primary store.
    A batch applies no control ops: {!apply_ops} runs between
    batches. *)

val shard_of_packet : domains:int -> int -> Bytes.t -> int
(** The flow-affinity shard of an [(in_port, frame)] packet: CRC-32 of
    the *canonicalized* (direction-symmetric) outer IPv4 5-tuple mod
    [domains], so both directions of a connection land on the same
    shard — a NAT/LB reply must see the bindings its forward flow
    installed. Packets with no parseable 5-tuple shard by input port.
    (Exposed so tests and tools can reproduce the partition.) *)

val process_batch_parallel :
  ?domains:int ->
  ?each:(int -> (outcome, string) result -> unit) ->
  t ->
  (int * Bytes.t) list ->
  batch_stats
(** Shard the batch by {!shard_of_packet} and run every shard on its own
    OCaml domain against a private {!Asic.Chip.replicate} clone of the
    chip (it shares nothing it writes: a replica table reads its
    primary's table body until its first write copies it, and compiled
    actions and register cells are the replica's own; the factories
    from {!on_to_cpu_state} re-bind to the replica and its shard's
    store). Shard [d] builds its replica on its own domain,
    so the replicas are built in parallel, and then runs one minor
    collection so the replica is promoted before its first packet
    rather than in the middle of a shard's packets. The primary is
    only read while the shards run. After the join, once
    their tallies are folded back, the replicas are released
    ({!Asic.Chip.release}): their writes die with them, and the
    primary's next control op writes its tables in place.

    [domains] defaults to the engine's;
    [domains:1] is exactly {!process_batch} — same digest, same state
    persistence on the primary chip. Under a [Bounded] state knob the
    stores are first re-sharded to [domains] — whether that count came
    from the engine or from [?domains] — so each shard's packets meet
    their own flows' state.

    Determinism contract: flow affinity gives every flow one owner
    domain processing its packets in arrival order, so per-packet
    outcomes match the sequential run whenever flows don't interact
    through shared NF state (cross-flow state — e.g. a rate-limiter
    bucket fed by several flows — is only deterministic if those flows
    hash to the same shard). Results merge in shard order: totals are
    sums, the digest chains per-shard digests, so repeated runs with the
    same [domains] agree bit-for-bit. Replicas are discarded after the
    run — control-plane installs during a parallel batch do not persist
    on the primary chip, which is what keeps repeated runs identical.

    With telemetry on, each shard gets a private observer, folded back
    afterwards by {!Observe.merge}: counters and histograms merge into
    this runtime's registry, shard journeys re-enter the primary flight
    recorder with fresh ids, and the per-flow INT aggregates merge
    (see {!int_sink}). Table tallies fold into the primary chip's live
    stats.

    [each] runs on worker domains (for distinct packet indices,
    concurrently) — it must tolerate that, e.g. by writing to distinct
    array slots. *)
