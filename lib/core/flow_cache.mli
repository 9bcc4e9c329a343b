(** Per-shard exact-match flow cache (EMC) memoizing whole-chain
    verdicts.

    Keyed on the arrival port plus the frame's entire header region
    (every byte the chip's parser family can extract), so two frames
    with equal keys are indistinguishable to the match-action pipeline;
    the payload passes through opaquely and is re-appended on hits.
    Stateful NFs stay correct through a recorded side-effect plan:
    table dependencies (with mutation epochs), register dependencies
    (with reset epochs) and the ordered register read/write trace. A
    hit revalidates the plan against live state — replaying recorded
    writes over the recorded reads — before serving the memoized
    verdict and re-applying the writes; any mismatch drops the entry
    and falls back to the full pipeline.

    Uncacheable outcomes: CPU punts and round trips, recirculations,
    resubmissions, mirrored copies, to-CPU verdicts, errors, and
    emitted frames that did not preserve the input payload.

    Eviction is LRU at a fixed capacity; invalidation is lazy and
    epoch-based (a stale entry dies at its next lookup). One cache
    serves one chip: {!create} arms lookup/access recorders on every
    table and register of that chip, so per-domain shard replicas each
    need their own cache over their own replica chip.

    Memory: an entry lives in a slot of parallel arrays (key, entry,
    and int LRU links), so a hit's LRU touch writes two ints and
    allocates nothing. Its table and register dependencies are a plan
    shared with every entry that recorded the same ones at the same
    epochs, through a memo of the 8 most recent distinct plans; only
    register read/write traces stay per entry. A full 65,536-entry
    cache of TCP/IPv4 flows holds 35.5 words (284 bytes) per entry:
    the key (9), the output prefix (8), the entry with its verdict and
    latency (10), a hash-table bucket (4) and the slot (4), against
    90.5 words with per-entry dependency arrays and boxed links. The
    slot arrays start at 16 and double up to the capacity. *)

type t

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
      (** entries dropped on a failed read-replay revalidation —
          packet-time staleness (shared register state moved) *)
  mutable invalidations : int;
      (** entries dropped on a dependency epoch mismatch — a
          control-plane mutation (table op, register reset) under the
          entry *)
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
(** On a validated hit: LRU-touch, replay the write plan and return the
    reconstructed verdict, allocating only the key, the output frame
    and the hit (25 words for a 54-byte TCP/IPv4 frame). On a miss (or
    a failed revalidation, which also drops the entry): start recording
    the side-effect plan for the full-pipeline run the caller is about
    to perform, to be finished by {!commit} or {!abort}. *)

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
    when the outcome is cacheable (and its dependencies were not
    mutated mid-run, e.g. by a CPU handler), else count it
    uncacheable. [frame] is the original input frame. *)

val abort : t -> unit
(** Discard a pending recording (error outcomes). *)

val uncacheable_by_reason : t -> (string * int) list
(** [stats.uncacheable] split by why {!commit} refused the run, in the
    order it checks: ["punt"] (a CPU round trip), ["recirc"],
    ["resubmit"], ["mirror"], ["to_cpu"] (a to-CPU verdict),
    ["payload_rewritten"] (the output does not end with the input's
    payload) and ["dep_mutated"] (a dependency's epoch moved during the
    run, e.g. a CPU handler's install). A run counts under the first
    that applies, so the counts sum to [stats.uncacheable]. Every
    reason is listed, zeros included. *)

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
