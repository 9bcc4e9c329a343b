(** 802.1Q VLAN tag codec (the 4 bytes following the Ethernet addresses). *)

type t = { pcp : int; dei : int; vid : int; ethertype : int }

val size : int
(** 4 bytes. *)

val make : ?pcp:int -> vid:int -> int -> t
val encode_into : t -> Bytes.t -> off:int -> unit
val decode : Bytes.t -> off:int -> (t, string) result
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
