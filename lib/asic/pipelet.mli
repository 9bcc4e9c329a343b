(** A loaded pipelet: one ingress or egress pipe with its program and a
    concrete MAU stage allocation that respects per-stage capacities. *)

type kind = Ingress | Egress

type id = { pipeline : int; kind : kind }

val pp_id : Format.formatter -> id -> unit
val equal_id : id -> id -> bool
val compare_id : id -> id -> int
val all_ids : Spec.t -> id list
(** Ingress 0, egress 0, ingress 1, egress 1, ... *)

type t

val load : Spec.t -> id -> P4ir.Program.t -> (t, string) result
(** Validates the program and packs its tables into stages: each table is
    placed at the earliest stage satisfying its dependency lower bound
    (match/action dependencies need a later stage than their producer)
    with enough residual table IDs / SRAM / TCAM / crossbar / VLIW / hash
    bits. Fails when the program does not fit. *)

val allocate_stages :
  Spec.t -> P4ir.Program.t -> ((string * int) list, string) result
(** The packing pass alone (exposed for resource reports and tests). *)

val id : t -> id
val program : t -> P4ir.Program.t
val tables : t -> P4ir.Table.t list
(** The loaded program's (live) table handles — what telemetry walks to
    enable stats and read hit/miss tallies. *)

val stage_of_table : t -> string -> int option
val stage_allocation : t -> (string * int) list
(** Every (table, stage) pair — the pipelet's stage occupancy. *)

val stages_used : t -> int
(** Highest occupied stage + 1 (0 when the program has no tables). *)

val set_label_counters : t -> (string -> int ref) option -> unit
(** Recompile the control with (or without) per-NF label counters —
    both {!process} and {!process_reference} honor the setting. The
    resolver is consulted once per label at recompile time for the fast
    path. *)

val process :
  ?trace:P4ir.Control.trace_event list ref -> t -> P4ir.Phv.t -> unit
(** Run the control program precompiled at {!load} time against the
    pipelet's layout (the fast path); on a PHV from {!parse}, an
    untraced pass allocates only the option of each index-bucket hit
    ({!P4ir.Table.apply_index}). *)

val process_reference :
  ?trace:P4ir.Control.trace_event list ref -> t -> P4ir.Phv.t -> unit
(** Interpret the control statement tree — the oracle {!process} is
    equivalence-tested against. *)

val parse :
  t -> Bytes.t -> (P4ir.Phv.t * Bytes.t, string) result
(** Run the pipelet's parser over a frame; returns the PHV (with standard
    metadata attached) and the unparsed payload. Copies the template PHV
    of the pipelet's layout — built once at {!load}, standard metadata
    first, then the parser's declarations — and extracts every field
    straight into its cell as an immediate int, through the parse graph
    compiled against that layout. *)

val parse_reference :
  t -> Bytes.t -> (P4ir.Phv.t * Bytes.t, string) result
(** {!parse} through the interpretive parse-graph walk on a
    name-resolved PHV of its own layout (standard metadata first here
    too) — the oracle counterpart, used by the chip's reference
    execution mode. *)

val deparse : t -> P4ir.Phv.t -> payload:Bytes.t -> Bytes.t
(** Generic serialization: walks the deparse order resolving each header
    by name. The reference-mode path. *)

val deparse_fast : t -> P4ir.Phv.t -> payload:Bytes.t -> Bytes.t
(** [deparse] over an emit plan precomputed at {!load} against the
    pipelet's layout (validity cell, declaration and size per header);
    byte-identical output. A PHV of another layout takes {!deparse}. *)
