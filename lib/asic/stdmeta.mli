(** The target's standard/intrinsic metadata header — always valid in
    every PHV the chip processes. Mirrors the fields the paper's platform
    metadata copies (§3): ports plus the resubmit / recirculate / drop /
    mirror / to-CPU flags. *)

val decl : P4ir.Hdr.decl
val name : string

(** The port fields are [bit<9>]; every flag is [bit<1>]. [egress_spec]
    is set in ingress; [egress_port] is read-only in egress. *)

val ingress_port : P4ir.Fieldref.t
val egress_spec : P4ir.Fieldref.t
val egress_port : P4ir.Fieldref.t
val resubmit_flag : P4ir.Fieldref.t
val drop_flag : P4ir.Fieldref.t
val mirror_flag : P4ir.Fieldref.t
val to_cpu_flag : P4ir.Fieldref.t

val attach : P4ir.Phv.t -> unit
(** Ensure the PHV carries a valid standard-metadata instance. *)

val layout : P4ir.Hdr.decl list -> P4ir.Phv.layout
(** A PHV layout with standard metadata as its leading header, then
    [decls] ({!P4ir.Phv.layout_of}). Every PHV a pipelet parses has
    such a layout, so the cells below are fixed indices into it. *)

(** Cells of the standard-metadata fields in any PHV whose layout leads
    with {!decl} (see {!layout}). *)

val ingress_port_cell : int
val egress_spec_cell : int
val egress_port_cell : int
val resubmit_cell : int
val drop_cell : int
val mirror_cell : int
val to_cpu_cell : int
