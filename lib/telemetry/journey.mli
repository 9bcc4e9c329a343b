(** One packet's journey through the chip — the one per-packet hop
    record, feeding both the flight recorder and the INT per-flow
    aggregate ({!Int_report}): the per-pass hops (pipelet, tables
    applied with the action that ran, NF blocks entered, parsed
    headers, SFC position), plus the flow key, end-to-end verdict and
    counters.
    Everything is plain strings/ints so the data plane layers can fill
    it in without this library knowing their types. *)

type hop_meta = {
  sfc : (int * int) option;
      (** (service_path_id, service_index) after the pass, when the
          packet carries an SFC header *)
  headers : string list;  (** valid header instances — the parser path *)
}

val no_meta : hop_meta

type hop = {
  pipelet : string;  (** e.g. "ingress 0" *)
  nfs : string list;  (** NF blocks entered during the pass, in order *)
  tables : (string * string * bool) list;
      (** (table, action run, hit) in application order *)
  gateways : int;  (** gateway conditions evaluated during the pass *)
  latency_ns : float;
      (** modelled chip latency attributed to this pass: the pipelet
          walk plus any TM / recirculation cost paid to reach it —
          per-hop latencies sum to the result's end-to-end latency *)
  recirc_depth : int;  (** recirculations completed before this pass *)
  resubmit_depth : int;  (** resubmissions completed before this pass *)
  meta : hop_meta;
}

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

val json : t -> Json.t
(** The journey as a JSON value: its fields, then [hops] as one object
    per pass. *)

val to_json : t -> string
val list_to_json : t list -> string
val pp : Format.formatter -> t -> unit
