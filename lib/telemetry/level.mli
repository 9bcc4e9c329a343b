(** Instrumentation depth. The data plane compiles its hooks in or out
    per level, so [Off] costs one branch per hook point and [Counters]
    only integer bumps — the flight recorder's journey capture is paid
    only at [Journeys]. *)

type t =
  | Off  (** no instrumentation — the benchmark fast path *)
  | Counters
      (** per-table hit/miss + per-entry hits, per-NF apply counts,
          per-port and verdict counters, ns-per-packet histogram *)
  | Journeys
      (** everything in [Counters] plus a per-packet journey span
          captured into the bounded flight recorder *)

val counters_on : t -> bool
(** [true] for [Counters] and [Journeys]. *)

val journeys_on : t -> bool
(** [true] for [Journeys] only. *)

val of_string : string -> (t, string) result
val pp : Format.formatter -> t -> unit
