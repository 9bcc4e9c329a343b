(** Width-bounded bit values: the value type of every P4 field.

    A value carries its width (1..64 bits); arithmetic is modular in the
    width, comparisons are unsigned, exactly like P4's [bit<W>]. *)

type t
(** Immutable. *)

val make : width:int -> int64 -> t
(** [make ~width v] truncates [v] to [width] bits. Raises
    [Invalid_argument] unless [1 <= width <= 64]. *)

val of_int : width:int -> int -> t
val zero : int -> t
val one : int -> t
val max_value : int -> t
val width : t -> int
val to_int64 : t -> int64
(** Unsigned: always >= 0 for widths < 64. *)

val to_int : t -> int
(** Raises [Invalid_argument] if the value does not fit in an OCaml int. *)

val to_bool : t -> bool
(** [false] iff the value is zero. *)

val of_bool : bool -> t
(** A 1-bit value. *)

val resize : t -> int -> t
(** Truncate or zero-extend to a new width. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Operands are resized to the left operand's width; results keep it. *)

val equal : t -> t -> bool
(** Width-sensitive: values of different widths are never equal. *)

val equal_value : t -> t -> bool
(** Compares just the numeric values. *)

val lt : t -> t -> bool
val le : t -> t -> bool
val slice : t -> hi:int -> lo:int -> t
(** Bits [hi..lo] inclusive, like P4's [v[hi:lo]]. *)

val concat : t -> t -> t
(** Raises if the combined width exceeds 64. *)

val mask_of_prefix : width:int -> int -> t
(** [mask_of_prefix ~width n]: the n-bit-long prefix mask, MSB-aligned. *)
