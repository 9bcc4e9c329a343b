(** Header type declarations and header instances.

    A declaration is a named, ordered list of fixed-width fields of at
    most {!max_width} (62) bits, so that every field value is an
    immediate OCaml [int]: the PHV stores values as bare ints and the
    width lives here, in the declaration, never in a value. An instance
    is a validity bit plus a value per field; the PHV keeps the same
    data in its flat cell array ({!Phv}). *)

val max_width : int
(** 62: the widest field a declaration accepts. *)

type field = { name : string; width : int }

type decl = private {
  name : string;
  fields : field list;
  farr : field array;  (** [fields], indexable *)
  findex : (string, int) Hashtbl.t;  (** field name -> position *)
  foffs : int array;  (** per-field bit offset within the header *)
  fwidths : int array;  (** per-field width *)
  nbits : int;  (** total width *)
}
(** Built exclusively by {!decl}, which precomputes the indexed views the
    per-packet operations rely on. *)

val decl : string -> (string * int) list -> decl
(** [decl name fields] builds a declaration; raises [Invalid_argument]
    ["Hdr.decl <name>: field <f> width <w> not in 1..62"] for a width
    outside 1..{!max_width}, and on duplicate field names. *)

val total_width : decl -> int
(** Sum of field widths, in bits. *)

val byte_size : decl -> int
(** [total_width / 8]; raises if the declaration is not byte-aligned. *)

val n_fields : decl -> int

val mask : int -> int
(** [mask w]: the low [w] bits set ([w <= max_width]). *)

val cell_of_int64 : int64 -> int
(** A 64-bit value as a field value: itself when it fits in
    {!max_width} bits, else [-1], which no field value equals — so a
    match or select case on it never fires. *)

val field_width : decl -> string -> int
(** Raises [Not_found] for an unknown field. *)

val has_field : decl -> string -> bool

val self_checksum_byte : decl -> int option
(** Byte offset of the header's own internet checksum, when the
    declaration is an IPv4-style self-checksummed header (a 16-bit
    byte-aligned ["checksum"] field alongside an ["ihl"] field). The
    deparser's checksum engine recomputes these on emit; transport
    checksums (which span a pseudo-header and payload) don't qualify. *)

val read_fields : decl -> int array -> pos:int -> Bytes.t -> bit_off:int -> unit
(** Extract the header's fields from the wire into [cells.(pos)],
    [cells.(pos+1)], ... as immediate ints. Raises [Invalid_argument]
    when the bits fall outside the buffer. *)

val write_fields : decl -> int array -> pos:int -> Bytes.t -> bit_off:int -> unit
(** Emit [cells.(pos)], [cells.(pos+1)], ... to the wire; the inverse of
    {!read_fields}. Values must already fit their field widths. *)

val equal_decl : decl -> decl -> bool
val pp_decl : Format.formatter -> decl -> unit

type inst
(** A standalone mutable header instance — for encoding and decoding a
    header outside any PHV (the PHV keeps its headers in its own
    cells). *)

val inst : decl -> inst
(** A fresh, invalid instance with all-zero fields. *)

val decl_of : inst -> decl
val is_valid : inst -> bool
val set_valid : inst -> unit
val set_invalid : inst -> unit
val get : inst -> string -> Bitval.t
(** Raises [Not_found] for an unknown field. Reading an invalid header
    returns the stored value (all-zero unless written), matching the
    "undefined but harmless" hardware behaviour. *)

val set : inst -> string -> Bitval.t -> unit
(** The value is resized to the declared field width. *)

val field_index : decl -> string -> int
(** Position of a field in the declaration; raises [Not_found]. *)

val extract : inst -> Bytes.t -> bit_off:int -> unit
(** Fill fields from the wire and mark the instance valid. *)

val emit : inst -> Bytes.t -> bit_off:int -> unit
(** Serialize the fields to the wire (caller checks validity). *)
