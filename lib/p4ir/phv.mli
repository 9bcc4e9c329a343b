(** The packet header vector: every header instance (and metadata header)
    a packet carries through a pipeline, addressed by {!Fieldref.t}.

    A PHV is a {!layout} plus one flat [int array] of cells. Header [h]
    owns a validity cell (0 or 1) followed by one cell per field, in
    declaration order; a cell holds the field's value as an immediate
    int (fields are at most {!Hdr.max_width} = 62 bits wide, and the
    width lives in the declaration). Layouts are immutable and shared:
    {!copy} keeps the source's layout, and a pipelet builds one layout
    when it loads and copies a template of it per packet.

    Two ways in:
    - {b name-resolved} ({!get}, {!set}, {!get_int}, {!is_valid}, ...):
      look the header and field up by name on every call and work on
      any PHV. [get]/[set] speak {!Bitval.t}, the control-plane and
      reference-interpreter value type. This is the reference
      interpreter's and the control plane's way in, and only theirs.
    - {b layout-bound} ({!field_cell}/{!valid_cell} resolved once at
      compile time, then {!cell}/{!set_cell}, or the [cells] array
      itself, per packet): what the compiled fast path uses. A cell
      index is only meaningful for PHVs whose {!layout} is physically
      the layout it was resolved against, and compiled code runs on
      nothing else: a pipelet checks that pointer once per call and
      refuses a PHV of another layout. *)

type layout
(** Immutable: header order, per-header validity cell, cell count. *)

type t = private { mutable lay : layout; mutable cells : int array }
(** [lay] is {!layout}; [cells] holds the values. Both are replaced
    only here ({!add_decl} moves a PHV to an extended layout and a
    longer array), so code compiled against [lay] may read and write
    [cells.(i)] for the indices it resolved — the compiled closures of
    {!Expr}, {!Action} and {!Table} do, with no call per cell. A
    written value must stay within its field's width. *)

val create : Hdr.decl list -> t
(** Fresh PHV with an invalid instance per declaration, under a layout
    of its own. Raises on duplicate declaration names. *)

val layout_of : Hdr.decl list -> layout
(** A layout holding the declarations in order; an equal declaration
    repeated is kept once, a conflicting one raises like {!add_decl}. *)

val of_layout : layout -> t
(** A fresh PHV over a shared layout: every header invalid, every field
    zero. *)

val layout : t -> layout

val add_decl : t -> Hdr.decl -> unit
(** Add another (invalid) instance; no-op when the same declaration is
    already present, raises when a different one with the same name is.
    Adding a header moves the PHV to a new, extended layout. *)

val decls : t -> Hdr.decl list

(** {2 Name-resolved access} *)

val is_valid : t -> string -> bool
(** [false] when the header is absent entirely. *)

val set_valid : t -> string -> unit
val set_invalid : t -> string -> unit
val get : t -> Fieldref.t -> Bitval.t
(** Raises [Not_found] for unknown header or field. The value carries
    the declared field width. *)

val get_int : t -> Fieldref.t -> int
val set : t -> Fieldref.t -> Bitval.t -> unit
val set_int : t -> Fieldref.t -> int -> unit
(** Truncate to the declared width. *)

val copy : t -> t
(** Same layout, private cells. *)

val equal : t -> t -> bool
(** Same headers (by name), validity and values — layouts may differ. *)

(** {2 Layout-bound access}

    Resolution raises [Not_found] for an unknown header or field. *)

val valid_cell : layout -> string -> int
(** The header's validity cell; its fields follow it. *)

val field_cell : layout -> Fieldref.t -> int
val field_width : layout -> Fieldref.t -> int
val decl_in : layout -> string -> Hdr.decl

val cell : t -> int -> int
val set_cell : t -> int -> int -> unit
(** The caller keeps the value within the field's width. *)

val extract_at : t -> Hdr.decl -> int -> Bytes.t -> bit_off:int -> unit
(** [extract_at t d vc b ~bit_off]: read header [d], whose validity cell
    is [vc], from the wire and mark it valid, through the bit loop
    ({!Hdr.read_fields}): the Reference parser's extract. *)

val emit_at : t -> Hdr.decl -> int -> Bytes.t -> bit_off:int -> unit
(** Write header [d]'s fields (validity cell [vc]) to the wire through
    the bit loop ({!Hdr.write_fields}): the Reference deparser's emit. *)

val decode_at : t -> Hdr.decl -> int -> Bytes.t -> off:int -> unit
(** {!extract_at} at byte [off] through the wire codec
    ({!Hdr.read_wire}): the Fast-mode parser's extract. *)

val encode_at : t -> Hdr.decl -> int -> Bytes.t -> off:int -> unit
(** {!emit_at} at byte [off] through the wire codec
    ({!Hdr.write_wire}): the Fast-mode deparser's emit. *)
