(** The live control plane: a typed op language over a running chip's
    tables and registers.

    The controller applies a batch of ops *between* packet batches, so
    a batch is atomic with respect to traffic: no packet ever observes
    a half-applied batch. [Runtime.apply_ops] is the one door for
    control-plane writes; a CPU handler applies its own op to the chip
    that punted through {!apply_table}. Nothing outside tests should
    mutate a compiled chip's tables directly.

    Ops address tables and registers by their composed (per-NF
    instance) names, resolved through {!Asic.Chip.find_table} /
    {!Asic.Chip.find_register} — the names [Compose.nf_table_name]
    assigns. Every successful table op bumps the table's epoch exactly
    like direct mutation does, so flow-cache invalidation is scoped to
    the touched tables and needs no extra plumbing. A register reset
    invalidates nothing: no cached verdict depends on a register.

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

(** {2 State digest}

    A canonical digest of a chip's control-plane-visible state: every
    table's entries in insertion order (priority, patterns, action,
    args) and every register's nonzero cells, CRC-32-folded in pipelet
    order. Two chips that applied the same op history digest equal
    unless traffic wrote state into one of them, for packet-time state
    is part of the digest: register writes by traffic, and the entries
    CPU handlers install (an LB session, a NAT binding). So compare
    chips before traffic or after identical traffic; [dejavu churn],
    whose live runtime carries traffic and whose cold one does not,
    compares only the tables its ops wrote, entry by entry. *)

val state_digest : Asic.Chip.t -> int64
