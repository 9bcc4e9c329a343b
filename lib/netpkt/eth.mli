(** Ethernet II header codec. *)

type t = { dst : Mac.t; src : Mac.t; ethertype : int }

val size : int
(** 14 bytes. *)

val ethertype_ipv4 : int
val ethertype_arp : int
val ethertype_vlan : int

val ethertype_sfc : int
(** The EtherType Dejavu uses to signal the SFC header (0x894F, the NSH
    EtherType the paper's header derives from). *)

val make : ?dst:Mac.t -> ?src:Mac.t -> int -> t
val encode_into : t -> Bytes.t -> off:int -> unit
val decode : Bytes.t -> off:int -> (t, string) result
val pp : Format.formatter -> t -> unit
