(** Table dependency analysis, after Jose et al. (NSDI'15), which the
    paper relies on for composition: match and action dependencies force
    tables into later MAU stages; pure control (successor) dependencies
    allow same-stage placement via predication. *)

type kind = Match_dep | Action_dep | Successor_dep

type node = {
  table : string;
  reads : Fieldref.Set.t;  (** match keys + action expression reads + the
                               gateway conditions guarding the table *)
  writes : Fieldref.Set.t;  (** union over all actions (and the default) *)
}

val nodes_of_control : Control.table_env -> Control.t -> node list
(** Applied tables in program order, each with read/write sets. Gateway
    condition reads are folded into every table the gateway guards.
    Raises [Invalid_argument] for unknown tables. *)

val dep_between : node -> node -> kind option
(** [dep_between earlier later]: the strongest dependency, or [None]. *)

val stage_gap : kind -> int
(** [Match_dep]/[Action_dep] -> 1, [Successor_dep] -> 0. *)

val min_stages : Control.table_env -> Control.t -> (string * int) list * int
(** Longest-path stage lower bound per table (ignoring capacity), and the
    total stage count (max + 1; 0 for a control with no tables). *)
