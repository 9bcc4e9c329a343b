(** Classic libpcap capture files (the pre-pcapng format every tool
    reads): dump the frames a simulation emits and open them in
    wireshark/tcpdump. Little-endian, microsecond timestamps,
    LINKTYPE_ETHERNET. *)

type packet = { ts_sec : int; ts_usec : int; frame : Bytes.t }

val packet : ?ts_sec:int -> ?ts_usec:int -> Bytes.t -> packet

val to_bytes : packet list -> Bytes.t
(** A complete capture: global header + records. *)

val of_bytes : Bytes.t -> (packet list, string) result
(** Parses little-endian microsecond captures (the ones [to_bytes]
    writes). *)

val write_file : string -> packet list -> unit
val read_file : string -> (packet list, string) result
