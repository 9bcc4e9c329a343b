(** Ethernet port modes. A loopback port takes no external traffic and
    bounces every packet sent to it back into its pipeline's ingress —
    the mechanism Dejavu uses to buy recirculation bandwidth (§4). *)

type mode = Normal | Loopback

type t

val make : Spec.t -> t
(** All Ethernet ports in [Normal] mode. *)

val set_mode : t -> int -> mode -> unit
(** Raises [Invalid_argument] for a non-Ethernet port. *)

val set_pipeline_loopback : t -> Spec.t -> int -> unit
(** Put every Ethernet port of a pipeline in loopback mode — the §5
    prototype configuration. *)

val is_loopback : t -> int -> bool
val loopback_count : t -> int

val external_capacity_fraction : t -> float
(** [(n - m) / n] where [m] of [n] Ethernet ports are loopback — the
    paper's linear capacity model. *)

val copy : t -> t
