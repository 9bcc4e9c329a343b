(** Clusters of switch data planes (§7, "Towards clusters of switch data
    planes"): identical switches chained back-to-back with direct-attach
    cables, multiplying MAU stages at the same aggregate bandwidth.

    Topology: a unidirectional linear chain. Each switch's uplink ports
    feed the next switch's ingress (pipeline 0 by convention); within a
    switch, the usual rules apply (TM between any ingress/egress pair,
    recirculation within a pipeline). A cluster is one {!chip} whose
    pipelines are every switch's, numbered switch by switch: switch
    [s], pipeline [p] is global pipeline [s * per_switch + p], and
    switch [s]'s Ethernet port [e] is global port [s * ports + e]. So
    the ordinary {!Layout.t} describes cluster placements, and
    {!Traversal.solve} with [~switches] routes them: the cable [Hop]
    costs no recirculation bandwidth (0.1 in the objective) but pays the
    §4 off-chip latency ({!Model.chain_latency_ns} at [cable_m]). *)

type t = {
  spec : Asic.Spec.t;  (** one switch; every switch is identical *)
  n_switches : int;
  cable_m : float;  (** inter-switch DAC length *)
}

val make : ?cable_m:float -> spec:Asic.Spec.t -> n_switches:int -> unit -> t

val chip : t -> Asic.Spec.t
(** [spec] widened to every switch's pipelines — the spec to hand
    {!Traversal} and {!Model} with [~switches:n_switches]. *)

val n_global_pipelines : t -> int
val switch_of_pipeline : t -> int -> int
val global_pipeline : t -> switch:int -> pipeline:int -> int
val pipelet : t -> switch:int -> pipeline:int -> kind:Asic.Pipelet.kind -> Asic.Pipelet.id

val port : t -> switch:int -> port:int -> int
(** The global number of switch [switch]'s Ethernet port [port] — how a
    chain names the switch it exits on. *)

type strategy = Greedy_fill | Anneal of { iterations : int; seed : int }

val place :
  t ->
  resources_of:(string -> P4ir.Resources.t) ->
  chains:Chain.t list ->
  pinned:(string * Asic.Pipelet.id) list ->
  strategy ->
  (Layout.t * float, string) result
(** Assign NFs to the cluster's pipelets under per-pipelet stage budgets
    ({!Placement.stages_needed}), entering at switch 0's pipeline 0 and
    leaving on each chain's exit port. [Greedy_fill] fills pipelets in
    forward order, packing chain-consecutive NFs sequentially, and fails
    when they run out. [Anneal] runs {!Placement.anneal} from that fill
    (from random when it fails), at initial temperature 2.0. *)
