(** A complete pipelet program: parser, tables, control, deparser —
    what gets loaded onto one ingress or egress pipe. *)

type t = {
  name : string;
  parser : Parser_graph.t;
  tables : Table.t list;
  registers : Register.t list;
  control : Control.t;
  deparse_order : string list;
}

val make :
  ?registers:Register.t list ->
  name:string ->
  parser:Parser_graph.t ->
  tables:Table.t list ->
  control:Control.t ->
  deparse_order:string list ->
  unit ->
  t
(** Raises [Invalid_argument] on duplicate table or register names. *)

val copy : t -> t
(** Copy the program's mutable state — its tables ({!Table.copy}: each
    shares its source's entries until either side writes) and register
    cells ({!Register.copy}) — sharing the immutable parser/control
    structure. Compiling the copy's control binds it to the copied
    state, since compilation resolves tables and registers by name. *)

val table_env : t -> Control.table_env
val find_table : t -> string -> Table.t option
val find_register : t -> string -> Register.t option
val validate : t -> (unit, string) result
(** Refuses at load whatever the compiled path could not resolve
    against the parser's declarations (the headers of a pipelet's PHV
    layout): parser validity (every select field declared,
    {!Parser_graph.validate}), control validity (all tables exist),
    every table key a declared field of the key's width ({!Table.bind}),
    every register primitive's register declared, the deparse order
    naming only declared headers, and every expression — gateway
    conditions, inline primitives, table actions — at most
    {!Hdr.max_width} (62) bits wide at every node ({!Expr.widest}), so
    the compiled int path and the 64-bit [Bitval] reference cannot
    disagree. An [Error] names the parser state, table or header at
    fault. *)

val exec_control :
  ?trace:Control.trace_event list ref ->
  ?label_counters:(string -> int ref) ->
  t ->
  Phv.t ->
  unit
(** Interpret the control against the program's own table and register
    environments — the reference path. *)

val compile_control :
  ?label_counters:(string -> int ref) -> layout:Phv.layout -> t -> Control.compiled
(** Precompile the control against the same environments and the PHV
    layout it will run on, and only on ({!Control.compile}); run with
    {!Control.run_compiled}. [label_counters] (the per-NF telemetry
    hook) is resolved per label at compile time. *)

val pp : Format.formatter -> t -> unit

val empty : name:string -> parser:Parser_graph.t -> t
(** A pass-through program: no tables, empty control, every header the
    parser declares deparsed in declaration order. *)
