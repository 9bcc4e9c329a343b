(** Control blocks: the straight-line/branching programs MAU pipelines
    execute, in the style of P4-16 control bodies. *)

type stmt =
  | Apply of string  (** apply a table by name *)
  | Apply_hit of string * block * block
      (** [if (t.apply().hit) then_ else_] *)
  | Apply_switch of string * (string * block) list * block
      (** branch on [action_run]; the last block is the default *)
  | If of Expr.t * block * block
  | Run of Action.prim list  (** inline primitive operations *)
  | Label of string * block
      (** a named region — records NF provenance through composition *)

and block = stmt list

type t = { name : string; body : block }

val make : string -> block -> t

type table_env = string -> Table.t option

(** One control event — the journey recorder's {!Telemetry.Journey.event},
    re-exported: the trace is only ever recorded for the per-pass hops
    the chip builds in [Journeys] mode. *)
type trace_event = Telemetry.Journey.event =
  | T_table of string * string * bool  (** table, action run, hit *)
  | T_gateway of string * bool  (** rendered condition, outcome *)
  | T_enter of string  (** entered a labeled region *)

val exec :
  ?trace:trace_event list ref ->
  ?label_counters:(string -> int ref) ->
  ?regs:Action.reg_env ->
  table_env ->
  t ->
  Phv.t ->
  unit
(** Execute against a PHV by interpreting the statement tree. Raises
    [Invalid_argument] for unknown tables or registers. Kept as the
    reference oracle for {!compile}. [label_counters] resolves a label
    name to its apply counter, bumped each time the labeled region is
    entered — the per-NF telemetry hook. *)

type compiled
(** A control precompiled to closures: table names, action dispatch and
    gateway expressions are resolved once, and a gateway's condition is
    rendered at its first traced evaluation and kept; per-packet
    execution touches no statement tree, and builds trace events only
    when a trace is collected. Each statement is one closure — a table
    apply, a gateway over its shape-lowered test ({!Expr.lower}), an
    inline action over its fused body ({!Action.compile}) — and a block
    of up to three statements is one closure that calls them in order.
    Table entries added after compilation are seen — the closures hold
    live table handles. *)

val compile :
  ?label_counters:(string -> int ref) ->
  ?regs:Action.reg_env ->
  layout:Phv.layout ->
  table_env ->
  t ->
  compiled
(** Raises [Invalid_argument] for a table name the environment does not
    know (including in unreached branches — [exec] would only raise on
    first use). [label_counters] is resolved once per [Label] at compile
    time; each entry into the region then costs a single [incr].

    [layout] is the PHV layout the control runs on, and the only one:
    inline primitives and gateways are compiled against it, and every
    applied table is {!Table.bind}ed to it, so a run is on immediate
    ints and, untraced, allocates only what its table lookups do
    ({!Table.apply_index}). Binding raises like {!Table.bind} for a
    table key the layout does not hold at its declared width. *)

val run_compiled : ?trace:trace_event list ref -> compiled -> Phv.t -> unit
(** Same observable behavior as {!exec} with the environments captured
    at compile time: identical PHV effects and identical trace events,
    on a PHV of the compiled layout (the caller's to check). *)

val tables_used : t -> string list
(** Every table name applied anywhere in the body, in first-use order. *)

val map_tables : (string -> string) -> t -> t
(** Rename every table reference (used when composing NFs). *)

val gateway_count : t -> int
(** Number of [If] conditions (each consumes one gateway resource). *)

val validate : table_env -> t -> (unit, string) result
(** Check that every applied table exists and switch branches name real
    actions of their table. *)

val pp : Format.formatter -> t -> unit
