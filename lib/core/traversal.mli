(** Physical traversal of a chain over a placement: which pipelets a
    packet visits and how many recirculations/resubmissions it needs
    (the quantity Fig. 6 counts and §3.3's optimizer minimizes).

    The model enforces the paper's Tofino constraints: transitions
    happen only at pipe boundaries; an ingress can reach any egress
    through the traffic manager; recirculation returns a packet from an
    egress pipe to the ingress pipe of the same pipeline; resubmission
    replays the same ingress pipe.

    The same graph covers §7's clusters: [switches] identical chips
    chained back to back, given as one spec whose pipelines are
    numbered switch by switch (each switch owns [n_pipelines /
    switches] of them). The traffic manager then reaches only the
    egresses of the ingress's own switch, and a cable [Hop] from any
    egress reaches the next switch's first pipeline. Cables run forward
    only, so every route crosses the same number of them. *)

type ingress_action = To_egress of int | Resubmit

type egress_action = Emit | Recirc | Hop  (** [Hop]: cable to the next switch *)

type step =
  | Ingress_step of {
      pipeline : int;
      idx_in : int;
      idx_out : int;  (** chain position before/after this pass *)
      action : ingress_action;
    }
  | Egress_step of {
      pipeline : int;
      idx_in : int;
      idx_out : int;
      action : egress_action;
    }

type path = { steps : step list; recircs : int; resubmits : int; hops : int }

val advance : Layout.pipelet_layout -> string list -> int -> int
(** [advance layout chain idx]: the chain position after one pass
    through a pipelet with this layout — consumes the longest prefix of
    [chain] from [idx] whose members appear at strictly increasing
    layout positions, taking at most one member per [Par] group. *)

val solve :
  ?start_idx:int ->
  ?switches:int ->
  Asic.Spec.t ->
  Layout.t ->
  entry_pipeline:int ->
  exit_port:int ->
  string list ->
  path option
(** Cheapest traversal, or [None] when the chain cannot complete — e.g.
    an NF is unplaced. [start_idx] (default 0) starts the walk mid-chain
    at [entry_pipeline]'s ingress — how routing entries for packets
    resuming after a control-plane round trip are derived. A resubmission costs 0.9 of a recirculation:
    both replay a pipe pass and cut effective throughput, but
    recirculation additionally consumes loopback-port bandwidth. A
    cable hop costs 0.1: latency, not loopback bandwidth. [switches]
    (default 1) must divide the spec's pipelines; raises
    [Invalid_argument] otherwise.

    Assumes each NF appears in at most one pipelet's layout — true of
    every layout the placement strategies and compiler produce. *)

val solve_reference :
  ?start_idx:int ->
  ?switches:int ->
  Asic.Spec.t ->
  Layout.t ->
  entry_pipeline:int ->
  exit_port:int ->
  string list ->
  path option
(** The original O(V²) array-scan Dijkstra with per-call list walks,
    kept as a test oracle and benchmark baseline for the heap-based
    [solve]. Same contract; identical optimal costs. *)

val cost :
  ?switches:int ->
  Asic.Spec.t ->
  Layout.t ->
  entry_pipeline:int ->
  Chain.t list ->
  float option
(** Weighted transition cost over all chains — the §3.3 objective
    (recirculations) extended with resubmissions at 0.9 weight and
    cable hops at 0.1; [None] if any chain is infeasible. *)

val cost_reference :
  ?switches:int ->
  Asic.Spec.t ->
  Layout.t ->
  entry_pipeline:int ->
  Chain.t list ->
  float option
(** [cost] computed with {!solve_reference} — the oracle scoring path. *)

val chain_transition_cost :
  Chain.t -> recircs:int -> resubmits:int -> hops:int -> float
(** The chain's weighted contribution to the objective — the one
    definition shared by every scoring path, so incremental re-scoring
    (summing per-chain contributions left-to-right in chain order)
    stays bit-identical to a from-scratch {!cost}. *)

type kcache
(** Memo table for {!chain_counts_keyed}, backing {!Placement}'s
    move-diff annealer. Its key records each chain NF's location and
    grouping up to the symmetries the solver cannot observe: groups and
    slots become ranks among the chain's own NFs at that location, so
    unrelated NFs shifting a pipelet's absolute slots leave the key
    unchanged, and on one switch pipelines are renamed to first-use
    order with the entry fixed and the exit recorded last, so
    isomorphic placements on different pipelines share one entry. On a
    cluster pipelines keep their numbers. Equal keys imply equal counts.
    Bounded; a full table resets and refills. *)

val kcache_create : unit -> kcache

val chain_counts_keyed :
  kcache ->
  Asic.Spec.t ->
  switches:int ->
  index:(string, Layout.coord) Hashtbl.t ->
  entry_pipeline:int ->
  Chain.t ->
  (int * int * int) option
(** [(recircs, resubmits, hops)] of one chain's cheapest traversal over the
    given coordinate index, as {!solve} counts them, memoized in the
    {!kcache}. The per-chain building block of the move-diff annealer,
    which re-scores only the chains a move touched. *)

val pp_path : Format.formatter -> path -> unit
(** Steps, then the counts; [hops=] only when the path has any. *)
