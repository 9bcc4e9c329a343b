(** Virtualization gateway: maps traffic into and out of the tenant
    overlay. Toward the tenant it pushes an 802.1Q tag chosen by an LPM
    on the destination (and records the tenant in the SFC context);
    traffic arriving tagged is decapsulated.

    Substitution note (DESIGN.md): the production NF speaks VXLAN; the
    modeled ASIC parser handles the same push/pop logic with a VLAN tag
    so the inner 5-tuple stays at a fixed offset for the co-located
    LB/firewall. *)

type mapping = {
  dst_prefix : Netpkt.Ip4.prefix;
  vid : int;
  tenant : int;
}

val name : string
val create : mapping list -> unit -> (Dejavu_core.Nf.t, string) result

type ref_effect = Encap of { vid : int; tenant : int } | Decap | Pass

val reference : mapping list -> tagged_vid:int option -> Netpkt.Ip4.t -> ref_effect
(** [tagged_vid] is the packet's VLAN id when it arrives tagged; only a
    known vid is decapsulated, mirroring the exact-match decap table. *)
