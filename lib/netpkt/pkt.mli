(** Layered packets: building and parsing full frames from the codecs.

    The SFC header itself is owned by the Dejavu core library (it is the
    paper's contribution); at this layer it appears as an opaque
    [Sfc_raw] blob delimited by {!Eth.ethertype_sfc}. *)

type layer =
  | Eth of Eth.t
  | Vlan of Vlan.t
  | Sfc_raw of Bytes.t  (** the 20-byte Dejavu SFC header, undecoded *)
  | Arp of Arp.t
  | Ipv4 of Ipv4.t
  | Tcp of Tcp.t
  | Udp of Udp.t
  | Icmp of Icmp.t
  | Vxlan of Vxlan.t
  | Payload of string

type t = layer list

val encode : t -> Bytes.t
(** Serializes the layers back to back. IPv4 [total_length] and UDP
    [length] are recomputed to cover everything that follows them, and the
    IPv4 checksum is filled in. *)

val decode : Bytes.t -> (t, string) result
(** Parses a frame starting at Ethernet. Unknown ethertypes/protocols end
    with a [Payload] of the remaining bytes. *)

val tcp_flow :
  ?payload:string -> src_mac:Mac.t -> dst_mac:Mac.t -> Flow.five_tuple -> t
(** A minimal Eth/IPv4/(TCP|UDP) frame for the given 5-tuple. *)

val five_tuple_of : t -> Flow.five_tuple option
(** The first IPv4 header's addresses and protocol with the first TCP or
    UDP header's ports; [None] without both. *)

val five_tuple_of_frame : Bytes.t -> Flow.five_tuple option
(** [five_tuple_of] of the frame's {!decode}, [None] when it does not
    decode, read in place: every check [decode] makes (lengths, IPv4
    version 4 with IHL 5, ARP opcode 1 or 2, SFC next protocol, a VXLAN
    inner frame that itself decodes) and no layer list or payload copy. *)

val find_ipv4 : t -> Ipv4.t option
val find_eth : t -> Eth.t option
val pp : Format.formatter -> t -> unit
