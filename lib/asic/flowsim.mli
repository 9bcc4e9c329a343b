(** Slotted packet-level contention simulator for recirculation
    throughput (the measured side of Fig. 8a).

    Setup after Fig. 7(a): two port groups of equal bandwidth T; group B
    is in loopback mode. Fresh traffic enters at full rate T on group A's
    ingress and must pass through loopback egress EB once per required
    recirculation before finally leaving through EA. EB has a finite
    buffer: when fresh and re-circulating packets together exceed its
    drain rate, the overflow is dropped — the feedback queue of §4. *)

type config = {
  n_recircs : int;  (** passes through the loopback port; >= 0 *)
  pkts_per_slot : int;  (** T expressed in packets per slot *)
  buffer_pkts : int;  (** EB queue capacity *)
  slots : int;  (** simulation length *)
  warmup_slots : int;  (** excluded from the measurement *)
  seed : int;
}

val default : n_recircs:int -> config

type stats = {
  offered : int;  (** fresh packets injected during measurement *)
  delivered : int;  (** packets that completed all recirculations *)
  dropped : int;
  throughput_fraction : float;  (** delivered rate / line rate T *)
}

val run : config -> stats

val sweep : int list -> (int * stats) list
(** [sweep [1;2;3;4;5]] runs one {!default} simulation per recirculation
    count. *)
