(** IPv4 header codec (20-byte header; options unsupported by the ASIC
    parser model, so [ihl] is fixed at 5). *)

type t = {
  dscp : int;
  ecn : int;
  total_length : int;
  ident : int;
  flags : int;
  frag_offset : int;
  ttl : int;
  protocol : int;
  checksum : int;  (** 0 means "fill in at encode time". *)
  src : Ip4.t;
  dst : Ip4.t;
}

val size : int
(** 20 bytes. *)

val proto_icmp : int
val proto_tcp : int
val proto_udp : int

val make :
  ?dscp:int ->
  ?ident:int ->
  ?ttl:int ->
  protocol:int ->
  src:Ip4.t ->
  dst:Ip4.t ->
  unit ->
  t

val encode_into : t -> Bytes.t -> off:int -> unit
(** Writes the header; when [t.checksum] is 0 the correct header checksum
    is computed and written. *)

val decode : Bytes.t -> off:int -> (t, string) result
val checksum_valid : Bytes.t -> off:int -> bool
val pp : Format.formatter -> t -> unit
