(** Related-work comparison (§6): Dejavu merges NF programs at the code
    level; Hyper4/HyperV instead run a general-purpose *emulation*
    program that interprets the NFs' tables, which the literature
    reports to cost 3-7x the native resources.

    This module models the emulation structurally, following Hyper4's
    design: every logical table becomes a generic ternary match stage
    (keys widened to the interpreter's fixed slot and matched in TCAM,
    with the virtual program/stage id prepended), and every action is
    executed one primitive per MAU stage through generic
    primitive-execution tables. The 3-7x factor then falls out of the
    structure instead of being asserted. *)

type comparison = {
  nf : string;
  native : P4ir.Resources.t;  (** the NF compiled as Dejavu composes it *)
  emulated : P4ir.Resources.t;  (** the NF interpreted Hyper4-style *)
}

val emulated_table : P4ir.Table.t -> P4ir.Resources.t
(** Emulation cost of one logical table. *)

val compare_nf : Nf.t -> comparison

val overhead_factor : comparison -> (string * float) list
(** Per-resource emulated/native ratio (resources with zero native use
    are omitted). *)

val summary : Nf.t list -> comparison
(** Totals across a set of NFs, reported under the name ["total"]. *)

val pp_comparison : Format.formatter -> comparison -> unit
