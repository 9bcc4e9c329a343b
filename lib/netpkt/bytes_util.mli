(** Bit-exact access to byte buffers, in network (big-endian) bit order,
    plus the two checksums every packet pipeline needs.

    Bit offsets count from the most-significant bit of byte 0, the way
    header diagrams in RFCs (and P4 parser offsets) are written. *)

val get_bits : Bytes.t -> bit_off:int -> width:int -> int64
(** [get_bits b ~bit_off ~width] reads [width] bits (1..64) starting at
    [bit_off] as an unsigned value. Raises [Invalid_argument] when the
    range falls outside [b] or [width] is out of range. *)

val set_bits : Bytes.t -> bit_off:int -> width:int -> int64 -> unit
(** [set_bits b ~bit_off ~width v] writes the low [width] bits of [v]
    at [bit_off]. Bits of [v] above [width] are ignored. *)

val max_int_width : int
(** 62: the widest field the [int] accessors below handle. *)

val get_bits_int : Bytes.t -> bit_off:int -> width:int -> int
(** {!get_bits} for widths 1..62, as an immediate [int]: nothing is
    allocated. Byte-aligned whole-byte fields (8 to 56 bits, MAC
    addresses included) are read with wide loads. Raises
    [Invalid_argument] like {!get_bits}, and for widths above 62. *)

val set_bits_int : Bytes.t -> bit_off:int -> width:int -> int -> unit
(** {!set_bits} for widths 1..62 from an immediate [int]; bits of the
    value above [width] are ignored. *)

val get_uint8 : Bytes.t -> int -> int
val set_uint8 : Bytes.t -> int -> int -> unit
val get_uint16 : Bytes.t -> int -> int
val set_uint16 : Bytes.t -> int -> int -> unit
val get_uint32 : Bytes.t -> int -> int64
val set_uint32 : Bytes.t -> int -> int64 -> unit

val internet_checksum : Bytes.t -> off:int -> len:int -> int
(** RFC 1071 ones'-complement checksum of [len] bytes at [off]. *)

val crc32 : ?init:int64 -> Bytes.t -> off:int -> len:int -> int64
(** IEEE 802.3 CRC32 (reflected, polynomial 0xEDB88320) of the range.
    [init] is the 32-bit CRC register's starting value (a previous
    result chains a digest); bits above 32 are ignored.

    The kernel folds eight bytes per step (slicing-by-8: one 64-bit
    little-endian read and eight lookups into tables built at module
    initialisation) and the remainder bytewise; its values equal the
    bytewise definition's. The range is checked once: it raises
    [Invalid_argument] exactly when [len > 0] and [off, off+len) leaves
    the buffer, and any [len <= 0] returns [init] finalised. *)

val crc32_int : ?init:int -> Bytes.t -> off:int -> len:int -> int
(** {!crc32} as an immediate [int]. It allocates nothing. *)

val crc32_fold : int -> Bytes.t -> off:int -> len:int -> int
(** [crc32_fold acc b ~off ~len] is [crc32_int ~init:acc b ~off ~len]
    with the running value passed positionally, so a loop that threads
    a digest through it allocates no [Some] per call. *)

val crc32_fold_be : int -> bytes:int -> int -> int
(** [crc32_fold_be acc ~bytes v] is {!crc32_fold} over the [bytes]
    low-order bytes of [v], most significant first (its big-endian
    encoding), without a buffer to hold them. [bytes] is at most 7. *)

val crc16 : Bytes.t -> off:int -> len:int -> int64
(** CRC-16/ARC (reflected, polynomial 0xA001) of the range. *)

val crc16_int : Bytes.t -> off:int -> len:int -> int
(** {!crc16} as an immediate [int]. *)

val pp_hex : Format.formatter -> Bytes.t -> unit
(** Hex dump, 16 bytes per line. *)
