(** Count-min-sketch DDoS detector (stateful extension NF): three
    register rows indexed by independent hashes of the source address;
    when the minimum estimate crosses the threshold the packet is
    flagged — mirrored for analysis by default, dropped when created
    with [~block:true]. *)

val name : string
val row_register : int -> string
val create : ?block:bool -> threshold:int -> unit -> (Dejavu_core.Nf.t, string) result

val reset : Dejavu_core.Compiler.t -> unit
(** Clear the sketch (periodic decay from the control plane). *)

val estimate : Dejavu_core.Compiler.t -> Netpkt.Ip4.t -> int
(** The sketch's current estimate for a source, computed with the same
    hash functions the data plane uses. *)

(** {2 Reference invariants} *)

val reference_estimate_lower_bound : true_count:int -> estimate:int -> bool
(** Count-min never underestimates: [estimate >= true_count]. *)
