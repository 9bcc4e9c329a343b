(** IPv4 addresses and prefixes. *)

type t
(** An IPv4 address (32 bits, unsigned). *)

val of_int64 : int64 -> t
val to_int64 : t -> int64
val of_octets : int -> int -> int -> int -> t
val of_string : string -> (t, string) result
val of_string_exn : string -> t
val to_string : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val random : Random.State.t -> t

type prefix = { addr : t; len : int }
(** A CIDR prefix; [len] in 0..32. Host bits of [addr] are cleared. *)

val prefix : t -> int -> prefix
val prefix_of_string_exn : string -> prefix
val prefix_to_string : prefix -> string
val matches : prefix -> t -> bool
val prefix_mask : int -> int64
