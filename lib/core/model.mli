(** The paper's §4 analytic models: loopback capacity accounting, the
    feedback-queue throughput fixed point, and chain-level predictions
    built on them. *)

type loopback_split = {
  external_fraction : float;  (** (n - m) / n of chip capacity *)
  single_recirc_fraction : float;  (** min(1, m / (n - m)) of that traffic *)
}

val loopback_split : n_ports:int -> m_loopback:int -> loopback_split

val feedback_throughput : int -> float
(** [feedback_throughput k]: steady-state delivered fraction of the line
    rate T for traffic requiring [k] passes through a saturated loopback
    port of equal rate T — the fixed point of the §4 feedback queue.
    k=0,1 -> 1.0; k=2 -> 0.382 (after x = 0.618T); k=3 -> ~0.16. *)

val feedback_arrival_rates : int -> float array
(** The per-pass arrival rates a_1..a_k at the loopback port at the fixed
    point (a_1 = 1.0); exposed so the x = 0.618T step of the paper's
    worked example is checkable. *)

val golden_x : float
(** (sqrt 5 - 1) / 2 = 0.618..., the paper's x/T for two recirculations. *)

val chain_throughput_gbps :
  Asic.Spec.t -> Asic.Port.t -> recircs:int -> float
(** Expected per-chain throughput: external capacity after loopback
    provisioning, degraded by the feedback model for the chain's
    recirculation count. *)

val software_cores_needed :
  target_gbps:float -> gbps_per_core:float -> int
(** The §1 motivation arithmetic: server cores a software SFC needs to
    match a target rate. *)

val chain_latency_ns : ?cable_m:float -> Asic.Spec.t -> Traversal.path -> float
(** Predicted latency of a solved traversal: both MAC crossings, one
    pipe pass per step, one TM crossing per ingress->egress move, the
    on-chip recirculation hop per recirculation (resubmissions re-run
    the ingress pipe only), and the off-chip hop over [cable_m] metres
    of cable (default 1) per cable hop between switches. *)
