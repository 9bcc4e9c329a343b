(** One packet's journey through the chip — the one per-packet hop
    record, feeding both the flight recorder and the INT per-flow
    aggregate ({!Int_report}): one hop per pipelet pass, which the chip
    builds as the pass ends (pipelet, the pass's control events, its
    share of the modelled latency, its recirculation/resubmission depth
    and the probe's read of the PHV), plus the flow key, end-to-end
    verdict and counters.

    The control events live here because the journey recorder is their
    only consumer: [P4ir.Control.trace_event] re-exports {!event}, and
    a control run builds events only when the chip records hops, at
    [Journeys]. Everything is plain strings/ints so the data plane
    layers can fill it in without this library knowing their types. *)

type event =
  | T_table of string * string * bool  (** table, action run, hit *)
  | T_gateway of string * bool  (** rendered condition, outcome *)
  | T_enter of string  (** entered a labeled region (an NF block) *)

type hop_meta = {
  sfc : (int * int) option;
      (** (service_path_id, service_index) after the pass, when the
          packet carries an SFC header *)
  headers : string list;  (** valid header instances — the parser path *)
}

val no_meta : hop_meta

type hop = {
  pipelet : string;  (** e.g. "ingress 0" *)
  events : event list;  (** the pass's control events, oldest first *)
  latency_ns : float;
      (** modelled chip latency attributed to this pass: the pipelet
          walk plus any TM / recirculation cost paid to reach it —
          per-hop latencies sum to the walk's end-to-end latency *)
  recirc_depth : int;  (** recirculations completed before this pass *)
  resubmit_depth : int;  (** resubmissions completed before this pass *)
  meta : hop_meta;
}

val nfs : hop -> string list
(** NF blocks entered during the pass, in order. *)

val tables : hop -> (string * string * bool) list
(** (table, action run, hit) in application order. *)

type t = {
  id : int;  (** recorder sequence number *)
  flow : string;
      (** canonical flow key — the 5-tuple rendering, or ["port:<n>"]
          for frames without one; what {!Int_report} aggregates by *)
  in_port : int;
  verdict : string;
      (** "emitted:<port>", "dropped", "to_cpu" or "error:<msg>" *)
  cpu_round_trips : int;
  recircs : int;
  resubmits : int;
  latency_ns : float;  (** modelled chip latency *)
  wall_ns : int;  (** measured host-clock time inside the runtime *)
  hops : hop list;
}

val to_json : t -> string
(** The journey as JSON: its fields, then [hops] as one object per
    pass, with its NFs, gateway count and tables read off the pass's
    events. *)

val list_to_json : t list -> string
val pp : Format.formatter -> t -> unit

val pp_trace : Format.formatter -> t -> unit
(** The journey's control trace: each hop's pipelet on a line of its
    own, then the pass's events one per indented line —
    [<table> -> <action> (hit)] or [(miss)], [if <condition> -> <outcome>],
    or [>> <nf>]. *)
