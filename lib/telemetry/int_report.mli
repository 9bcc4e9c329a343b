(** INT-style per-flow reports: one bounded aggregate per runtime into
    which every packet's {!Journey.t} is pushed, folding its per-hop
    records (the {!Journey.hop} stamps each pipelet pass leaves in the
    packet's probe metadata) into its flow's summary — the "postcard"
    model where every hop's telemetry is reported out-of-band at the
    end of the packet's walk instead of accumulating in the packet.

    Per-flow aggregation stops accepting new flows at [max_flows]
    (drops are counted, never silent). The journeys themselves are
    retained only by the flight recorder. *)

(** Running aggregate of every journey a flow produced. *)
type summary = {
  flow : string;
  mutable packets : int;
  mutable hops : int;  (** total pipelet passes across all packets *)
  mutable latency_ns : float;  (** summed modelled chip latency *)
  mutable max_hops : int;  (** deepest single walk (recirc fan-out) *)
  mutable recircs : int;
  mutable resubmits : int;
  mutable verdicts : (string * int) list;  (** verdict -> packets *)
}

type t

val create : ?max_flows:int -> unit -> t
(** [max_flows] defaults to 1024. *)

val push : t -> Journey.t -> unit
(** Fold one journey into its flow's summary (keyed by
    [Journey.flow]). *)

val pushed : t -> int
(** Total journeys ever pushed, dropped flows included. *)

val summaries : t -> summary list
(** Per-flow aggregates, most packets first. *)

val flows : t -> int
val dropped_flows : t -> int
(** Journeys whose flow could not be aggregated because the flow table
    was full ([max_flows] reached). *)

val merge : into:t -> t -> unit
(** Fold a shard replica's aggregate into the primary: summaries add
    field-wise; pushed and dropped-flow counts sum. [src] is not
    modified. *)

val clear : t -> unit

val summary_to_json : summary -> string
(** One summary as a one-line JSON object. *)

val to_json : t -> string
(** Every summary, most packets first, as one JSON array. *)

val pp_summaries : Format.formatter -> t -> unit
