(** NF placement optimization (§3.3): assign NFs to pipelets and choose
    their on-pipelet composition to minimize the weighted recirculation
    count over all chains, subject to stage capacity.

    The paper leaves the general optimizer as ongoing work; we provide
    four strategies and cross-validate the heuristics against the
    exhaustive optimum on small instances. The annealer is one loop over
    a move evaluator: under [Fast] the move-diff ({!diff}) re-fits only
    the two pipelets a move touches; under [Reference] every candidate
    is rebuilt and scored whole. Both walk bit-identical per-seed
    trajectories. {!solve_parallel} runs independent seeded restarts on
    a {!Dpool.run} domain pool. *)

type strategy =
  | Naive
      (** place NFs in chain order, walking pipelets ingress 0, egress 0,
          ingress 1, egress 1, ... — the paper's strawman *)
  | Greedy
      (** place NFs in chain order, each on the pipelet that minimizes
          the weighted cost of the already-placed chain prefixes *)
  | Anneal of { iterations : int; seed : int; initial_temp : float }
  | Exhaustive
      (** enumerate every assignment; exponential, fine for m <= 8 *)

val default_anneal : strategy

type input = {
  spec : Asic.Spec.t;
  switches : int;
      (** switches chained back to back, sharing [spec]'s pipelines
          switch by switch (1 for one chip; see {!Traversal}) *)
  resources_of : string -> P4ir.Resources.t;  (** per-NF compiler report *)
  chains : Chain.t list;
  entry_pipeline : int;
  pinned : (string * Asic.Pipelet.id) list;
      (** NFs with a fixed location (e.g. the classifier on the entry
          ingress) *)
}

val stages_needed : input -> Layout.pipelet_layout -> int
(** NF stages plus framework overhead for one pipelet — the one stage
    formula. *)

val feasible : input -> Layout.t -> bool
(** Every pipelet's layout fits its stage budget. *)

val build_layout : input -> (string * Asic.Pipelet.id) list -> Layout.t option
(** Turn an assignment into a layout: NFs on one pipelet are ordered by
    their earliest chain position and composed [Seq]; when that exceeds
    the stage budget the whole pipelet falls back to [Par]. [None] when
    even [Par] does not fit. *)

val evaluate : input -> Layout.t -> float option
(** The optimizer objective; [None] when infeasible. *)

(** {1 Scorer backends} *)

type scorer =
  | Fast
      (** heap Dijkstra ({!Traversal.cost}) + fit memo; under [Anneal],
          each move is staged on a {!diff} *)
  | Reference
      (** the array-scan oracle ({!Traversal.cost_reference}) with no
          memo; under [Anneal], each candidate is rebuilt and scored
          whole *)

(** {1 Incremental move diffs}

    The annealer's inner loop represents a candidate as a {!Move.t} and
    applies it to a {!diff} — a live layout plus its {!Layout.coord}
    index and per-chain transition counts. Applying a move re-fits only
    the source and destination pipelets, re-indexes only their NFs, and
    re-solves only the chains that touch them; the resulting layout,
    index and cost are identical to a from-scratch {!build_layout} and
    score of the moved assignment (property-tested against exactly
    that oracle). *)

module Move : sig
  type t = {
    nf : string;
    src : Asic.Pipelet.id;  (** where [nf] currently sits *)
    dst : Asic.Pipelet.id;  (** where to put it; [src = dst] is a no-op *)
  }
end

type diff

val diff_create : input -> (string * Asic.Pipelet.id) list -> diff
(** A fresh diff over an assignment (pinned NFs included, in the same
    list form {!build_layout} takes), with its own [Fast] scorer
    state. *)

val diff_apply : diff -> Move.t -> [ `Applied of float | `Unfit ]
(** Apply one move. [`Applied cost] commits the new state and returns
    its objective value; [`Unfit] means the candidate is rejected — it
    would overflow a pipelet's stage budget, leave a chain unroutable,
    or not cure an infeasible starting state — and the diff is
    unchanged. Raises [Invalid_argument] if [nf] is not on [src]. *)

val diff_layout : diff -> Layout.t option
(** The current layout; [None] while some pipelet's NFs do not fit
    (possible only before the first applied move of a diff created from
    an infeasible assignment). *)

val diff_cost : diff -> float option
(** The current objective value, maintained incrementally — always
    equal to [evaluate] of {!diff_layout}. *)

val diff_index : diff -> (string, Layout.coord) Hashtbl.t
(** The live coordinate index (the incrementally-maintained
    {!Layout.index} of {!diff_layout}). Read-only; exposed so tests can
    compare it with a freshly built index. *)

(** {1 Solvers} *)

val solve : ?scorer:scorer -> input -> strategy -> (Layout.t * float, string) result
(** Returns the layout and its objective value. [scorer] (default
    {!Fast}) selects the scoring backend; both backends return identical
    results — [Reference] exists for benchmarking and for proving the
    fast paths against the oracle. [Anneal] runs {!anneal} from
    [Greedy]'s layout when greedy succeeds. *)

val anneal :
  input ->
  start:Layout.t option ->
  iterations:int ->
  seed:int ->
  initial_temp:float ->
  (Layout.t * float, string) result
(** The one annealing loop, scoring with [Fast]. Each free NF starts
    where [start] places it, at random otherwise ([start = None]: all at
    random). *)

(** {1 Parallel restarts} *)

type restart = { seed : int; cost : float option (** [None] = failed *) }

type parallel = {
  layout : Layout.t;  (** best layout over all seeds *)
  cost : float;
  restarts : restart list;  (** per-seed outcomes, in seed-list order *)
}

val solve_parallel :
  ?iterations:int ->
  ?initial_temp:float ->
  domains:int ->
  seeds:int list ->
  input ->
  (parallel, string) result
(** Anneal once per seed on a domain pool of at most [domains] domains
    ({!Dpool.run}) and keep the cheapest layout, scoring with [Fast].
    Each restart owns its scorer state, so nothing is shared across
    domains. Deterministic:
    the result is independent of [domains] — restarts are reported in
    seed-list order and cost ties keep the earliest seed. [iterations]
    defaults to 4000 and [initial_temp] to 2.0 (the {!default_anneal}
    parameters). Errors when [seeds] is empty or every restart fails. *)

val pp_strategy : Format.formatter -> strategy -> unit
