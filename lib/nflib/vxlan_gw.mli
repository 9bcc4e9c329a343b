(** A full VXLAN tunnel gateway (extension NF): terminates overlay
    tunnels by copying the inner Ethernet/IPv4/transport stack over the
    outer one and invalidating the overlay headers (decap), and
    originates tunnels from an LPM on the destination (encap). This is
    the NF that exercises the deep-offset side of the paper's
    (header_type, offset) parser-merging rule — the inner IPv4 sits 50
    bytes below the outer one, as a distinct vertex.

    After decap the packet is byte-identical to a never-encapsulated
    one, so every downstream NF (firewall, LB, router) works unchanged. *)

type tunnel = {
  dst_prefix : Netpkt.Ip4.prefix;  (** traffic to tunnel *)
  vni : int;
  local_vtep : Netpkt.Ip4.t;
  remote_vtep : Netpkt.Ip4.t;
}

val name : string
val create : tunnel list -> unit -> (Dejavu_core.Nf.t, string) result

val reference_decap : Netpkt.Pkt.t -> Netpkt.Pkt.t
(** Pure model of decapsulation on the layered representation: strips
    outer IPv4/UDP/VXLAN and the inner Ethernet, keeping the outer
    Ethernet (and SFC header) over the inner IPv4 stack. Identity for
    packets without a VXLAN layer. *)
