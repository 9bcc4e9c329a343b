(** Monitoring tap (extension NF): sets the SFC mirror flag for traffic
    matching a ternary selector, so the platform can copy it to an
    analysis port. *)

type selector = {
  src : Netpkt.Ip4.prefix option;
  dst : Netpkt.Ip4.prefix option;
}

val name : string
val create : selector list -> unit -> (Dejavu_core.Nf.t, string) result
val reference : selector list -> src:Netpkt.Ip4.t -> dst:Netpkt.Ip4.t -> bool
