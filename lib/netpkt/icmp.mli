(** ICMP echo header codec (type/code/checksum + id/seq). *)

type t = { typ : int; code : int; ident : int; seq : int }

val size : int
(** 8 bytes. *)

val encode_into : t -> Bytes.t -> off:int -> unit
val decode : Bytes.t -> off:int -> (t, string) result
val pp : Format.formatter -> t -> unit
