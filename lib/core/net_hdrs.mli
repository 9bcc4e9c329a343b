(** Shared P4 header declarations for the protocol stack Dejavu programs
    parse, plus a builder for the (header_type, offset) parser topology
    every NF's parser is a slice of.

    Offsets follow the wire layouts the deployment can see:
    eth@0, then optionally sfc@14, then optionally vlan, then ipv4 and a
    transport header. Identical header types at different offsets are
    distinct parser vertices, per the paper's merging rule. *)

val eth : P4ir.Hdr.decl
val vlan : P4ir.Hdr.decl
val ipv4 : P4ir.Hdr.decl
val tcp : P4ir.Hdr.decl
val udp : P4ir.Hdr.decl

val all_decls : P4ir.Hdr.decl list
(** The protocol declarations above, the VXLAN header and its overlay
    inner headers, plus the SFC header. *)

val ethertype_ipv4 : int
val ethertype_vlan : int
val ethertype_sfc : int
val proto_tcp : int
val proto_udp : int

(** Field shorthands used across NFs. *)

val eth_ethertype : P4ir.Fieldref.t
val eth_src : P4ir.Fieldref.t
val eth_dst : P4ir.Fieldref.t
val vlan_vid : P4ir.Fieldref.t
val ip_src : P4ir.Fieldref.t
val ip_dst : P4ir.Fieldref.t
val ip_proto : P4ir.Fieldref.t
val ip_ttl : P4ir.Fieldref.t
val tcp_sport : P4ir.Fieldref.t
val tcp_dport : P4ir.Fieldref.t
val udp_sport : P4ir.Fieldref.t
val udp_dport : P4ir.Fieldref.t

val gid : string -> int -> string
(** Canonical vertex id for a (header_type, offset) tuple: ["hdr@off"] —
    the global-ID lookup the paper asks NF programmers to supply. *)

val base_parser :
  ?with_vlan:bool ->
  ?with_l4:bool ->
  ?with_vxlan:bool ->
  name:string ->
  unit ->
  P4ir.Parser_graph.t
(** A full parser over the topology: [with_vlan] adds the 802.1Q
    branches (both with and without the SFC header), [with_l4] adds
    TCP/UDP extraction under every IPv4 vertex, and [with_vxlan]
    continues under UDP port 4789 into the overlay (VXLAN header and the
    inner Ethernet/IPv4/transport stack), both on raw arrivals and
    beneath the SFC header — tunnel traffic must be decodable on the
    same pass the classifier runs in. NF parsers are built by
    taking this with the options they need; the generic parser is their
    merge. *)

val deparse_order : string list
(** Canonical emission order for all known headers. *)
