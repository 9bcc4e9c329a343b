(** Bounded per-flow state for stateful NFs: one typed key/value store
    behind every NF's dynamic state (NAT bindings, LB sessions,
    per-tenant counts, offender ledgers), so a million-flow workload
    runs in flat memory instead of unbounded [Hashtbl]/[Table] growth.

    A store ({!t}) is a collection of named {e tables}, each
    capacity-bounded with LRU eviction and optional TTL aging, created
    once per runtime (per shard, under sharding) from the engine's
    [state] knob. NFs register their tables through {!table} with
    typed codecs ({!conv}); entries are held in a canonical encoded
    form, which is what makes {!digest} (live ≡ cold gating) and
    {!migrate} (re-homing when the shard count changes) uniform across
    every NF's state. Entries enter through {!insert} and leave through
    eviction — capacity or TTL — and nothing else.

    Time is logical and explicit: the store's clock only moves when the
    owner calls {!advance} (the runtime's
    [Runtime.advance_state_time]), so TTL expiry is deterministic —
    two runs that advance the clock at the same points expire the same
    entries in the same order, and digest gates stay meaningful.

    Eviction is observable: a table's [on_evict] callback fires for
    every capacity eviction and TTL expiration, letting the owner
    mirror the eviction into the data plane — e.g. the LB deletes the
    evicted flow's session entry through [Ctrl], which bumps the
    table's epoch and thereby invalidates any cached verdict for that
    flow. Callbacks must not re-enter the store. *)

type t

type config = {
  capacity : int;  (** max live entries per table; clamped to >= 1 *)
  ttl_ns : int64;
      (** idle time (on the logical clock) after which an entry
          expires; [<= 0] disables aging *)
}

val create : ?now_ns:int64 -> config -> t
(** An empty store whose logical clock starts at [now_ns] (default 0). *)

val config : t -> config
val now : t -> int64

val advance : t -> int64 -> int
(** Move the logical clock forward and sweep every table for expired
    entries (oldest-touched first, tables in name order), firing
    [on_evict Expired] for each. Returns the number expired. *)

(** {2 Typed tables} *)

(** Why an entry left a table involuntarily. *)
type evict_reason =
  | Capacity  (** LRU eviction: a new entry needed the slot *)
  | Expired  (** TTL aging (on lookup or an {!advance} sweep) *)

type ('k, 'v) table

(** A codec to and from the canonical encoded (string) form entries are
    stored in. [dec] must invert [enc]; entries whose stored bytes no
    longer decode are skipped by {!fold} and get no typed callback. *)
type 'a conv = { enc : 'a -> string; dec : string -> ('a, string) result }

module Conv : sig
  val int : int conv
  val string : string conv
  val ip4 : Netpkt.Ip4.t conv
  val five_tuple : Netpkt.Flow.five_tuple conv
  (** 13 bytes in header order (src, dst, proto, sport, dport). *)
end

val table :
  t ->
  name:string ->
  key:'k conv ->
  value:'v conv ->
  ?shard_hint:('k -> int64) ->
  ?on_evict:(evict_reason -> 'k -> 'v -> unit) ->
  unit ->
  ('k, 'v) table
(** Find-or-create the named table. Flow-keyed state should pass the
    canonical shard hash ({!Netpkt.Flow.hash_five_tuple_symmetric}) as
    [shard_hint] so {!migrate} re-homes each entry to the shard that
    owns its flow; the default homes by CRC-32 of the encoded key.
    Re-registering an existing name (each shard replica re-binds its
    NF handlers per batch) adopts the existing entries and replaces
    the callback and the shard hint {!migrate} homes entries by. *)

val insert : ('k, 'v) table -> 'k -> 'v -> unit
(** Insert or overwrite, touching the entry (MRU). At capacity, the
    LRU entry is evicted first ([on_evict Capacity]). *)

val find : ('k, 'v) table -> 'k -> 'v option
(** Lookup; touches on hit. An entry whose TTL has lapsed is expired
    here ([on_evict Expired]) and reported as a miss. *)

val find_or_insert : ('k, 'v) table -> 'k -> 'v -> 'v
(** The stored value, touched; or, when there is none, [v], inserted.
    One probe of the table, with the tallies, touches, expiry and
    evictions of {!find} followed on a miss by {!insert}. *)

val length : ('k, 'v) table -> int

val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) table -> 'a -> 'a
(** Over live entries, least-recently-used first. Entries that fail to
    decode are skipped. *)

type table_stats = {
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable evictions : int;  (** capacity (LRU) evictions *)
  mutable expirations : int;  (** TTL expirations *)
}

val stats : ('k, 'v) table -> table_stats

val totals : t array -> (string * int * table_stats) list
(** Every table's (name, occupancy, stats) summed across the given
    shard stores, sorted by name — the fold-back behind the runtime's
    [state.*] telemetry gauges and the CLI/bench ledger reports. The
    stats are fresh records, not live ones. *)

val per_table : t -> (string * int * table_stats) list
(** {!totals} of one store. *)

(** {2 Digest and migration} *)

val digest : t array -> int64
(** Order-insensitive CRC-32 over the union of the stores' entries
    (tables by name, entries by encoded key/value; clocks and LRU
    stamps excluded): the canonical "same state" check for live
    re-shard ≡ cold-built gates. *)

val migrate : from:t array -> into:t array -> unit
(** Re-home every entry: each lands in
    [into.(shard mod Array.length into)] by its shard hint, merged
    across sources in touch-stamp order so the targets' LRU order is
    stamp-faithful and deterministic. Stamps, values and callbacks
    (where the target lacks a registration) carry over; targets'
    clocks advance to the sources' maximum. Entries beyond a target's
    capacity evict as usual. What the runtime runs when a batch's shard
    count differs from its stores' under a [Bounded] state knob. *)
