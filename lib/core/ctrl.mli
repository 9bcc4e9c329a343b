(** The live control plane: a typed op language over a running chip's
    tables and registers, and a producer/consumer update queue.

    Modeled on the SONiC redis-channel split between producers (routing
    daemons, an operator CLI) and the consumer that owns the hardware:
    producers {!submit} batches of ops to a {!queue} at any time, from
    any domain; the data-plane owner drains the queue and applies each
    batch *between* packet batches, so a batch is atomic with respect
    to traffic — no packet ever observes a half-applied batch.
    [Runtime.apply_ops] / [Runtime.sync] are the front door; nothing
    outside tests should mutate a compiled chip's tables directly.

    Ops address tables and registers by their composed (per-NF
    instance) names, resolved through {!Asic.Chip.find_table} /
    {!Asic.Chip.find_register} — the names [Compose.nf_table_name]
    assigns. Every successful op bumps the touched object's epoch
    exactly like direct mutation does, so flow-cache invalidation is
    scoped to the touched tables and needs no extra plumbing.

    Replica coherence under sharding is structural: the parallel
    runtime clones per-domain replicas from the primary chip at each
    batch start and discards them after, so ops applied to the primary
    between batches are seen by every shard of the next batch, and by
    none of the current one. *)

(** One mutation of a single table. [Add] installs (duplicate match
    keys allowed, as in {!P4ir.Table.add_entry}); [Mod] rebinds the
    action of — and [Del] removes — the installed entry whose match
    key (priority, patterns) equals the given entry's; [Clear] drops
    every entry. *)
type table_op =
  | Add of P4ir.Table.entry
  | Mod of P4ir.Table.entry
  | Del of P4ir.Table.entry
  | Clear

(** A chip-level op: a table mutation or a register reset, addressed by
    composed object name. *)
type op = Table of string * table_op | Reg_reset of string

val apply_table : P4ir.Table.t -> table_op -> (unit, string) result
(** Apply one table op to a resolved table handle. *)

val apply : Asic.Chip.t -> op -> (unit, string) result
(** Resolve the op's target on [chip] by name and apply it. Errors on
    unknown names and on the underlying mutation's failures. *)

val apply_all : Asic.Chip.t -> op list -> (int, string) result
(** Apply in order, stopping at the first failure. [Ok n] applied all
    [n] ops; [Error] prefixes the failing op's position. Atomicity is
    with respect to traffic (the caller applies between packet
    batches), not rollback — a failed batch leaves the prefix applied,
    like a partially-accepted P4Runtime write. *)

(** {2 Update queue}

    A mutex-guarded multi-producer queue of op batches. Producers run
    anywhere (CPU handlers, CLI threads); the single consumer is the
    runtime that owns the primary chip. *)

type queue

type batch = {
  id : int;
  ops : op list;
  submitted_ns : int64;
      (** monotonic-clock stamp taken at {!submit} — the consumer's
          drain latency is measured against it *)
}

val queue : unit -> queue

val submit : queue -> op list -> int
(** Enqueue one batch; returns its id (monotone per queue). *)

val pending : queue -> int
(** Batches waiting to be drained. *)

val drain : queue -> batch list
(** Atomically take every pending batch, in submission order. *)

val note : queue -> int -> (int, string) result -> unit
(** Record the outcome of applying batch [id] ([Ok ops_applied] or the
    error), for producers to inspect. Kept for the last 256 batches. *)

val results : queue -> (int * (int, string) result) list
(** Recorded outcomes, most recent first. *)

(** {2 State digest}

    A canonical digest of a chip's control-plane-visible state: every
    table's entries in insertion order (priority, patterns, action,
    args) and every register's nonzero cells, CRC-32-folded in pipelet
    order. Two chips that processed the same op history — live under
    traffic or cold — digest equal; used by [bench runtime --churn] to
    verify live-applied state against a cold-built runtime. Packet-time
    state (register writes by traffic) is part of the digest, so
    compare either before traffic or across runs with identical
    traffic. *)

val state_digest : Asic.Chip.t -> int64
