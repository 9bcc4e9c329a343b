(** Qualified references to header fields, e.g. [ipv4.dst_addr]. *)

type t = { hdr : string; field : string }

val v : string -> string -> t

val to_string : t -> string
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
