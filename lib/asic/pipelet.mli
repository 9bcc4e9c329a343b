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

val load :
  ?layout:P4ir.Phv.layout -> Spec.t -> id -> P4ir.Program.t -> (t, string) result
(** Validates the program ({!P4ir.Program.validate}: anything the
    compiled path could not resolve against the layout is refused
    here) and packs its tables into stages: each table is
    placed at the earliest stage satisfying its dependency lower bound
    (match/action dependencies need a later stage than their producer)
    with enough residual table IDs / SRAM / TCAM / crossbar / VLIW / hash
    bits. Fails when the program does not fit.

    Parser, control, tables and deparser are compiled against [layout],
    which must hold standard metadata and then exactly the parser's
    declarations, in order ({!Stdmeta.layout}); it defaults to a fresh
    layout of those. {!Chip.load} passes one layout to every pipelet of
    a chip whose parsers all declare the same headers and deparse in
    the same order, so a PHV one pass ends with is of the next pass's
    layout and can be {!adopt}ed. *)

val replicate : t -> t
(** A pipelet over a {!P4ir.Program.copy} of this one's program, for
    {!Chip.replicate}: its tables share this pipelet's table bodies
    until either side writes one, and its registers are copies. It
    reuses every load-time product — the validated program's stage
    allocation, the layout, the template PHV, the emit plan and the
    compiled parser — and compiles only the control, whose closures own
    scratch and apply the copy's tables; its {!adopt} scratch is fresh.
    Label counters start off. Only reads [t], so several domains may
    replicate one pipelet at once. *)

val allocate_stages :
  Spec.t -> P4ir.Program.t -> ((string * int) list, string) result
(** The packing pass alone (exposed for resource reports and tests). *)

val id : t -> id

val name : t -> string
(** The id as {!pp_id} renders it (["ingress 0"]), rendered once at
    {!load}: the pipelet's name in journey hops and table counters. *)

val program : t -> P4ir.Program.t
val tables : t -> P4ir.Table.t list
(** The loaded program's (live) table handles — what telemetry walks to
    enable stats and read hit/miss tallies. *)

val stage_of_table : t -> string -> int option

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
    pipelet's layout (the fast path); an untraced pass allocates only
    the option of each index-bucket hit ({!P4ir.Table.apply_index}).
    The PHV must be of the pipelet's layout — one from {!parse}, or
    one {!adopt} accepted; raises [Invalid_argument] on any other. *)

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
    compiled against that layout and each header's wire codec
    ({!P4ir.Hdr.read_wire}). The chip's [Fast] mode calls it on
    frames entering the chip, on resubmitted and recirculated frames,
    and on every handover {!adopt} refuses. *)

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
    pipelet's layout (validity cell, declaration and size per header),
    each header written through its wire codec
    ({!P4ir.Hdr.write_wire}); byte-identical output. The plan covers the whole deparse order,
    which {!P4ir.Program.validate} restricts to the parser's headers.
    Raises [Invalid_argument] on a PHV of another layout. *)

val adopt : t -> P4ir.Phv.t -> bool
(** Start a pass from the PHV another pass ended with, instead of
    parsing the frame that pass's {!deparse_fast} would emit — the
    chip's Fast-mode handover across the traffic manager. [adopt t phv]
    is [true] only when [phv] is of [t]'s layout and replaying
    [t]'s compiled parse graph on the PHV's own cells
    ({!P4ir.Parser_graph.replay}) extracts exactly the headers
    {!deparse_fast} would emit, in deparse order. Then [phv] is reset
    in place to what [parse t (deparse_fast t phv ~payload)] returns,
    and that parse's payload is [payload] itself: standard metadata
    valid and zeroed, every header not emitted invalid and zeroed, and
    each emitted self-checksum set to what the deparser's checksum
    engine writes. Otherwise — a rewritten ethertype or next-protocol
    field that sends the parse graph down another branch, a header
    the graph does not reach, a rejecting graph, a PHV of another
    layout — it is [false] and [phv] is untouched: the caller goes
    through bytes. Allocates nothing. *)
