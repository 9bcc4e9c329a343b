(** Chip geometry and calibration constants for the modeled switch ASIC.

    The default instance mirrors the paper's testbed: a Wedge-100B 32X
    with one Tofino — 32 x 100 Gbps Ethernet ports, 2 physical pipelines
    (4 pipelets), 16 hardwired ports per pipeline, and a dedicated
    100 Gbps recirculation port per pipeline. *)

type latency_params = {
  mac_serdes_ns : float;  (** MAC + serdes, one direction *)
  parse_ns : float;
  stage_ns : float;  (** per MAU stage *)
  deparse_ns : float;
  tm_ns : float;  (** traffic-manager crossing *)
  recirc_port_ns : float;  (** dedicated on-chip recirculation circuitry *)
  wire_ns_per_m : float;  (** DAC cable propagation *)
}

type t = {
  name : string;
  n_pipelines : int;
  stages_per_pipelet : int;
  ports_per_pipeline : int;
  port_gbps : float;
  recirc_port_gbps : float;
  stage_caps : P4ir.Resources.stage_caps;
  lat : latency_params;
}

val wedge_100b : t
val tofino_4pipe : t
(** A larger 4-pipeline variant for placement experiments. *)

val n_pipelets : t -> int
val n_eth_ports : t -> int
val port_pipeline : t -> int -> int
(** Pipeline owning an Ethernet port id. Raises on out-of-range ids. *)

val ports_of_pipeline : t -> int -> int list
val recirc_port : int -> int
(** The dedicated recirculation port id of a pipeline (256 + pipe). *)

val is_recirc_port : int -> bool
val cpu_port : int
val valid_port : t -> int -> bool
(** Ethernet, recirculation or CPU port of this chip. *)

val pipeline_of_any_port : t -> int -> int option
(** Pipeline for Ethernet/recirc ports; [None] for the CPU port. *)

val total_capacity_gbps : t -> float
val pp : Format.formatter -> t -> unit
