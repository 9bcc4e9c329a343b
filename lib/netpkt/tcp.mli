(** TCP header codec (20-byte header, options unsupported). *)

type t = {
  src_port : int;
  dst_port : int;
  seq : int64;
  ack : int64;
  flags : int;  (** low 9 bits: NS CWR ECE URG ACK PSH RST SYN FIN. *)
  window : int;
  checksum : int;
  urgent : int;
}

val size : int

val make :
  ?seq:int64 ->
  ?window:int ->
  src_port:int ->
  dst_port:int ->
  unit ->
  t

val encode_into : t -> Bytes.t -> off:int -> unit
val decode : Bytes.t -> off:int -> (t, string) result
val pp : Format.formatter -> t -> unit
