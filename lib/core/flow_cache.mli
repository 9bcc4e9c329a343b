(** Per-shard exact-match flow cache (EMC) memoizing whole-chain
    verdicts.

    Keyed on the arrival port plus the frame's entire header region
    (every byte the chip's parser family can extract), so two frames
    with equal keys are indistinguishable to the match-action pipeline;
    the payload passes through opaquely and is re-appended on hits.
    A cached verdict depends on table state only: an entry keeps a
    table plan, the tables its miss run consulted with their mutation
    epochs, and a hit is served only while every epoch is unchanged.
    A run that reads or writes a register is never cached, since the
    register NFs update their cells on every packet.

    Uncacheable outcomes: CPU punts and round trips, recirculations,
    resubmissions, mirrored copies, register accesses, to-CPU
    verdicts, errors, and emitted frames that did not preserve the
    input payload.

    Eviction is LRU at a fixed capacity; invalidation is lazy and
    epoch-based (an entry whose plan is out of date dies at its next
    lookup). One cache serves one chip: {!create} arms lookup/access
    recorders on every table and register of that chip, so per-domain
    shard replicas each need their own cache over their own replica
    chip.

    Memory: an entry lives in a slot of parallel arrays (key, entry,
    and int LRU links), so a hit's LRU touch writes two ints and
    allocates nothing. Its table plan is shared with every entry that
    recorded the same tables at the same epochs, through a memo of the
    8 most recent distinct plans. A full 65,536-entry cache of TCP/IPv4
    flows holds 34.5 words (276 bytes) per entry: the key (9), the
    output prefix (8), the entry with its verdict and latency (9), a
    hash-table bucket (4), the slot (4) and half a word of bucket
    array, against 90.5 words with per-entry dependency arrays and
    boxed links. The slot arrays start
    at 16 and double up to the capacity. *)

type t

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
      (** always 0: no entry depends on register state, so none goes
          stale between control-plane ops; kept because [bench/perf]
          builds and prints it *)
  mutable invalidations : int;
      (** entries dropped on a table epoch mismatch — a table
          mutation under the entry *)
  mutable uncacheable : int;  (** miss runs that could not be inserted *)
  mutable inserts : int;
  mutable evictions : int;
}

val create : capacity:int -> Asic.Chip.t -> t
(** Build a cache for [chip] and arm its recorder hooks on every table
    and register. Capacity is clamped to at least 1. The entry table
    starts small and grows with occupancy, so creating a cache costs the
    same at any capacity. *)

val capacity : t -> int
val length : t -> int
val stats : t -> stats
val hit_rate : t -> float
(** hits / (hits + misses), 0 when idle. *)

type hit = { verdict : Asic.Chip.verdict; latency_ns : float }

val lookup : t -> in_port:int -> Bytes.t -> hit option
(** On a hit whose table plan is current: LRU-touch and return the
    reconstructed verdict, allocating only the key, the output frame
    and the hit (25 words for a 54-byte TCP/IPv4 frame). On a miss (or
    an out-of-date plan, which also drops the entry): start recording
    the tables and register accesses of the full-pipeline run the
    caller is about to perform, to be finished by {!commit} or
    {!abort}. *)

val commit :
  t ->
  frame:Bytes.t ->
  verdict:Asic.Chip.verdict ->
  cpu_round_trips:int ->
  recircs:int ->
  resubmits:int ->
  mirrored:bool ->
  latency_ns:float ->
  unit
(** Finish the recording opened by a {!lookup} miss: insert the entry
    when the outcome is cacheable, else count it uncacheable. [frame]
    is the original input frame. *)

val abort : t -> unit
(** Discard a pending recording (error outcomes). *)

val uncacheable_by_reason : t -> (string * int) list
(** [stats.uncacheable] split by why {!commit} refused the run, in the
    order it checks: ["punt"] (a CPU round trip), ["recirc"],
    ["resubmit"], ["mirror"], ["register"] (the run read or wrote a
    register), ["to_cpu"] (a to-CPU verdict) and ["payload_rewritten"]
    (the output does not end with the input's payload). A run counts
    under the first that applies, so the counts sum to
    [stats.uncacheable]. Every reason is listed, zeros included. *)

val merge_stats : into:t -> t -> unit
(** Fold [src]'s stats tallies, and its refusals by reason, into
    [into]'s. Entries are not moved — per-shard caches share nothing;
    used when replica caches are discarded after a parallel batch so
    runtime-wide accounting survives. *)

(** {2 Introspection for tests and benches} *)

val key_of : in_port:int -> Bytes.t -> string
(** The cache key: 2 bytes of arrival port + the header region. *)

val keys_mru : t -> string list
(** Current keys, most recently used first. *)
