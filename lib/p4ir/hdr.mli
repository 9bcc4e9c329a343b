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
  places : int array;
      (** per-field place in the wire codec's 8-byte window, [-1] when the
          field has none *)
  span : int;  (** bytes the header covers: [nbits] rounded up *)
  lead : int;
      (** bytes the codec's windows reach before the header: [8 - span]
          for a header shorter than 8 bytes, else 0 *)
}
(** Built exclusively by {!decl}, which precomputes the indexed views the
    per-packet operations rely on, the wire codec included. *)

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
(** The bit loop: extract the header's fields from the wire into
    [cells.(pos)], [cells.(pos+1)], ... as immediate ints, one
    range-checked {!Netpkt.Bytes_util.get_bits_int} per field. Raises
    [Invalid_argument] when those cells are not all in [cells], and at
    the first field whose bits fall outside the buffer, with the fields
    before it already read. The Reference parser's extract, and the
    oracle of {!read_wire}. *)

val write_fields : decl -> int array -> pos:int -> Bytes.t -> bit_off:int -> unit
(** The bit loop's emit of [cells.(pos)], [cells.(pos+1)], ...; the
    inverse of {!read_fields}. A value's bits above its field's width
    are ignored. *)

(** {2 The wire codec}

    What every Fast-mode parse, deparse and TM handover reads and writes
    headers with. {!decl} compiles each field once to a place in an
    8-byte big-endian window (a byte, a shift and a mask); a header at
    byte [off] whose windows all lie in the buffer
    ([lead <= off <= length - span]: for a header of 8 bytes or more,
    exactly the check that it lies in the buffer) is read and written
    with that one check and no allocation. Any other header, and a
    field whose bits span 9 bytes (58-62 bits starting 3 or more bits
    into a byte), go through the bit loop. Results, the bytes written
    and the [Invalid_argument] raised equal the bit loop's at
    [~bit_off:(8 * off)]. *)

val read_wire : decl -> int array -> pos:int -> Bytes.t -> off:int -> unit
(** {!read_fields} at byte [off], through the codec. *)

val write_wire : decl -> int array -> pos:int -> Bytes.t -> off:int -> unit
(** {!write_fields} at byte [off], through the codec. Each write
    changes only its field's bits: bytes around the header, in the same
    buffer, keep their values. *)

val get_wire : decl -> int -> Bytes.t -> off:int -> int
(** [get_wire d k b ~off]: field [k] of the header at byte [off]. *)

val set_wire : decl -> int -> Bytes.t -> off:int -> int -> unit
(** [set_wire d k b ~off v]: write the low bits of [v] to field [k] of
    the header at byte [off], and nothing else. *)

val equal_decl : decl -> decl -> bool
val pp_decl : Format.formatter -> decl -> unit

type inst
(** A standalone mutable header instance — for encoding and decoding a
    header outside any PHV (the PHV keeps its headers in its own
    cells). *)

val inst : decl -> inst
(** A fresh instance with all-zero fields. *)

val get : inst -> string -> Bitval.t
(** Raises [Not_found] for an unknown field. *)

val set : inst -> string -> Bitval.t -> unit
(** The value is resized to the declared field width. *)

val field_index : decl -> string -> int
(** Position of a field in the declaration; raises [Not_found]. *)

val extract : inst -> Bytes.t -> bit_off:int -> unit
(** Fill fields from the wire. *)

val emit : inst -> Bytes.t -> bit_off:int -> unit
(** Serialize the fields to the wire. *)
