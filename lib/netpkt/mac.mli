(** 48-bit Ethernet MAC addresses. *)

type t
(** A MAC address, stored as the low 48 bits of an int64. *)

val of_int64 : int64 -> t
(** Keeps the low 48 bits. *)

val to_int64 : t -> int64

val of_string : string -> (t, string) result
(** Parses ["aa:bb:cc:dd:ee:ff"]. *)

val of_string_exn : string -> t
val to_string : t -> string
val broadcast : t
val zero : t
val is_multicast : t -> bool
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val random : Random.State.t -> t
(** A random unicast, locally-administered address. *)
