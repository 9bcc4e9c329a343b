(** SFC policies: the chains packets must traverse, each with a weight
    reflecting its share of traffic (the optimizer minimizes the
    weighted recirculation count, §3.3). *)

type t = {
  path_id : int;  (** the 16-bit service path id carried in the header *)
  name : string;
  nfs : string list;  (** NF names in traversal order *)
  weight : float;  (** fraction of traffic on this chain *)
  exit_port : int;  (** Ethernet port the chain's traffic leaves on *)
}

val make :
  path_id:int ->
  name:string ->
  nfs:string list ->
  ?weight:float ->
  exit_port:int ->
  unit ->
  t
(** Raises [Invalid_argument] on an empty NF list, duplicate NFs within
    the chain, a path id outside 1..65535, or a non-positive weight. *)

val length : t -> int
val position : t -> string -> int option
(** Index of an NF within the chain. *)

val all_nfs : t list -> string list
(** Distinct NF names across chains, in first-appearance order. *)

val validate_against : Nf.registry -> t list -> (unit, string) result
(** Every NF referenced exists; path ids unique. *)

val normalize_weights : t list -> t list
(** Scale weights to sum to 1. *)
