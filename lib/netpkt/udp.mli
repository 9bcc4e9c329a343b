(** UDP header codec. *)

type t = { src_port : int; dst_port : int; length : int; checksum : int }

val size : int
val port_vxlan : int
val make : src_port:int -> dst_port:int -> unit -> t
val encode_into : t -> Bytes.t -> off:int -> unit
val decode : Bytes.t -> off:int -> (t, string) result
val pp : Format.formatter -> t -> unit
