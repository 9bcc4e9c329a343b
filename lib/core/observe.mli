(** Telemetry glue for the Dejavu data plane: one registry + flight
    recorder per observer, chip hook installation, and snapshot/JSON
    export. The journeys it records carry the hops the chip built, one
    per pipelet pass ({!Asic.Chip.result}'s [hops]). The runtime owns
    an observer when its engine's telemetry is on (see
    {!Runtime.Engine}); the hot-path counters it bumps live in this
    observer's registry. *)

type t

val default_ring_capacity : int
(** 256 — the flight recorder's depth, in journeys. *)

val create : Telemetry.Level.t -> t
(** A fresh registry and an empty flight recorder of
    {!default_ring_capacity} journeys. *)

val level : t -> Telemetry.Level.t
val registry : t -> Telemetry.Registry.t
val ring : t -> Telemetry.Journey.t Telemetry.Ring.t

val int_sink : t -> Telemetry.Int_report.t
(** The observer's INT per-flow aggregate: every journey
    {!record_journey} takes is folded in here, keyed by its flow. *)

val attach_observer : t -> Asic.Chip.t -> unit
(** Enable chip-level instrumentation at this observer's level, backed
    by its own registry: table stats, per-NF label counters
    ([nf.<name>.applies]) and the SFC journey probe. No state is global,
    so per-domain observers each wire their own. *)

val error_class : string -> string
(** Coarse class of a runtime error message ([cpu_loop], [pass_limit],
    [bad_egress], [parse], [other]) — the error/drop-reason counter
    suffix. *)

val verdict_string : Asic.Chip.verdict -> string
val next_journey_id : t -> int
val record_journey : t -> Telemetry.Journey.t -> unit
(** Push a journey into the flight recorder and fold it into the INT
    aggregate ({!int_sink}). *)

val journeys : t -> Telemetry.Journey.t list
(** Flight-recorder contents, oldest first. *)

val merge : into:t -> t -> unit
(** Fold a shard observer into this one: registry counters and
    histograms sum ({!Telemetry.Registry.merge}), the shard's retained
    journeys re-enter this flight recorder with fresh ids, and the INT
    aggregates merge ({!Telemetry.Int_report.merge}). [src] is not
    modified. *)

val snapshot : t -> Asic.Chip.t -> Telemetry.Registry.snapshot
(** Copy live per-table hit/miss tallies into registry counters
    ([table.<pipelet>.<name>.hits/.misses], the pipelet's
    {!Asic.Pipelet.name} with [_] for the space), then snapshot the
    registry. *)

val table_entry_hits :
  Asic.Chip.t -> (string * (P4ir.Table.entry * int) list) list
(** Per stats-enabled table ("<pipelet>/<table>"), the installed entries
    with hit counts in insertion order. *)

val json : t -> Asic.Chip.t -> string
val pp : Format.formatter -> t -> Asic.Chip.t -> unit
