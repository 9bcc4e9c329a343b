(** The whole switch: pipelines of ingress/egress pipelets connected by a
    traffic manager, with resubmission and recirculation packet paths
    (Fig. 1 of the paper).

    The walk is faithful to the RMT architecture: the packet is deparsed
    at the end of every pipe and re-parsed at the next parser, so any
    state an NF wants to carry across pipes must ride in a header — which
    is precisely why Dejavu's SFC header exists.

    [Reference] mode does exactly that, bytes at every pipe boundary.
    [Fast] mode moves headers, not bytes, across the traffic manager,
    where the difference cannot show: the egress pass starts from the
    PHV the ingress pass ended with when {!Pipelet.adopt} proves that
    PHV equal to parsing what the ingress pass would deparse — and
    resets it to exactly that parse (standard metadata, headers the
    deparser would drop and self-checksums). Any other PHV goes through
    bytes: a rewritten ethertype or next-protocol field the parse graph
    reads differently, a header it would not reach, a parser reject, or
    pipelets of different layouts. A resubmission, a recirculation and
    every frame that leaves the chip — emitted, punted to the CPU or
    mirrored — go through bytes in both modes. The modelled clock
    charges a parse and a deparse on every pass either way
    ({!Latency.pipe_pass_ns}), so verdicts, frames, counters, hops
    and latencies are identical in both modes; only host time
    differs. *)

type config = {
  spec : Spec.t;
  ingress_programs : P4ir.Program.t array;  (** one per pipeline *)
  egress_programs : P4ir.Program.t array;
  ports : Port.t;
  mirror_port : int option;
      (** analysis port that receives a copy of every frame whose mirror
          flag is set when it leaves an egress pipe *)
}

type t

val load : config -> (t, string) result
(** Loads and stage-allocates all four (or 2n) pipelet programs. When
    every program's parser declares the same headers and every program
    deparses in the same order — always so for programs from
    [Compose.build], which loads one generic parser everywhere — all
    pipelets are loaded against one PHV layout ({!Pipelet.load}'s
    [?layout]), which is what lets a PHV cross the traffic manager in
    [Fast] mode. Otherwise each pipelet has its own layout and every
    pipe boundary goes through bytes. *)

val spec : t -> Spec.t
val ports : t -> Port.t
val pipelet : t -> Pipelet.id -> Pipelet.t

type exec_mode =
  | Fast
      (** precompiled parser, controls and deparser, indexed table
          lookups, and the PHV handed across the traffic manager when
          indistinguishable from bytes (default) *)
  | Reference
      (** interpret the parse graph and the statement trees, and deparse
          and re-parse at every pipe boundary — the oracle *)

val exec_mode : t -> exec_mode
val set_exec_mode : t -> exec_mode -> unit
(** Switch how {!inject} executes pipelet controls. Both modes produce
    identical verdicts, counters and hops; [Reference] exists for
    equivalence tests and as the benchmark baseline. *)

val pipelets : t -> Pipelet.t list
(** All loaded pipelets, ingress then egress (for telemetry walks). *)

val find_table : t -> string -> P4ir.Table.t option
(** The live handle of the first table with this (composed) name across
    all pipelet programs — how chip-bound control-plane handlers locate
    the table they install into on a {!replicate}d chip. *)

val find_register : t -> string -> P4ir.Register.t option
(** Same resolution for registers — how control-plane ops address
    stateful NF state by (composed) name. *)

val replicate : t -> t
(** A clone for another domain: every pipelet is replicated
    ({!Pipelet.replicate}). Each replica table shares its source's
    body — entries, lowered patterns and index — until either side
    writes it, when the writer takes a private copy
    ({!P4ir.Table.copy}); registers and port modes are copied; each
    control is recompiled over the replica's tables. So the replica
    and the original can process packets from different domains
    concurrently, and a replica costs what it writes, not what the chip
    holds. [replicate] only reads its argument, so several domains may
    replicate one chip at once. The replica shares its source's PHV
    layout and every other load-time product (stage allocation,
    template, emit plan, compiled parsers): a PHV of one is a PHV of
    the other's layout. The exec mode carries over; telemetry starts
    [Off] (attach a per-domain observer explicitly). *)

val release : t -> unit
(** Give up a replica's tables: each is {!P4ir.Table.clear}ed, which
    drops its claim on a body it still shares without copying it. A
    released chip's tables read as empty, and its source's next write
    to each table is in place instead of a copy. *)

val merge_stats : into:t -> t -> unit
(** [merge_stats ~into replica] adds the replica's per-table hit/miss
    and per-entry tallies into [into]'s live stats (tables paired by
    pipelet position and name; no-op for tables without stats enabled).
    Used after a parallel run so one telemetry snapshot covers all
    domains. *)

val set_telemetry :
  ?label_counters:(string -> int ref) -> t -> Telemetry.Level.t -> unit
(** Select the instrumentation level. [Counters] and above enable table
    hit/miss + per-entry stats and recompile controls with per-NF label
    counters (from [label_counters]); [Journeys] additionally records
    each pipelet pass as a hop in each {!result}. [Off] disables
    everything and recompiles the uninstrumented fast path — Off costs
    nothing per packet. Observable packet behavior is identical at
    every level; only [Journeys] fills a {!result}'s [hops].

    This is chip-internal plumbing: application code picks a telemetry
    level in the runtime's engine ([Runtime.Engine.telemetry]), and the
    runtime owns the registry the label counters land in. *)

val set_sfc_probe : t -> (P4ir.Phv.t -> Telemetry.Journey.hop_meta) -> unit
(** Install the per-hop PHV reader used in [Journeys] mode. The default
    probe returns {!Telemetry.Journey.no_meta}; the runtime installs one
    that decodes the SFC header (the chip itself cannot: that header is
    defined a layer up). *)

type verdict =
  | Emitted of { port : int; frame : Bytes.t }
  | Dropped
  | To_cpu of Bytes.t

type result = {
  verdict : verdict;
  resubmits : int;
  recircs : int;
  latency_ns : float;
  mirrored : (int * Bytes.t) list;
      (** copies sent to the mirror port, oldest first *)
  hops : Telemetry.Journey.hop list;
      (** [Journeys] mode only (else []): one hop per pipelet pass, in
          order, whose latency shares sum to [latency_ns]. A pass's
          control events cost a cons and an event per table, gateway
          and NF block, so they are recorded only for the journey
          recorder. *)
}

val inject : t -> in_port:int -> Bytes.t -> (result, string) Stdlib.result
(** Process one frame arriving on an external Ethernet port. Errors:
    invalid or loopback input port, parser rejection, unset or invalid
    egress port, or exceeding the pass limit (a routing loop). *)

val inject_cpu : t -> pipeline:int -> Bytes.t -> (result, string) Stdlib.result
(** Reinject a frame from the control plane into a pipeline's ingress
    (the runtime uses this after handling a to-CPU packet). *)
