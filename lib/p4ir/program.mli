(** A complete pipelet program: parser, tables, control, deparser —
    what gets loaded onto one ingress or egress pipe. *)

type t = {
  name : string;
  decls : Hdr.decl list;
  parser : Parser_graph.t;
  tables : Table.t list;
  registers : Register.t list;
  control : Control.t;
  deparse_order : string list;
}

val make :
  ?registers:Register.t list ->
  name:string ->
  decls:Hdr.decl list ->
  parser:Parser_graph.t ->
  tables:Table.t list ->
  control:Control.t ->
  deparse_order:string list ->
  unit ->
  t
(** Raises [Invalid_argument] on duplicate table or register names. *)

val copy : t -> t
(** Deep-copy the program's mutable state — installed table entries
    ({!Table.copy}) and register cells ({!Register.copy}) — sharing the
    immutable parser/control structure. Loading the copy binds its
    controls to the copied state, since compilation resolves tables and
    registers by name. *)

val table_env : t -> Control.table_env
val reg_env : t -> Action.reg_env
val find_table : t -> string -> Table.t option
val find_register : t -> string -> Register.t option
val validate : t -> (unit, string) result
(** Parser validity, control validity (all tables exist), deparse order
    covers only declared headers, every register primitive references a
    declared register, and every expression — gateway conditions,
    inline primitives, table actions — is at most {!Hdr.max_width}
    (62) bits wide at every node ({!Expr.widest}, with field widths
    from the program's and parser's declarations), so the compiled int
    path and the 64-bit [Bitval] reference cannot disagree. *)

val exec_control :
  ?trace:Control.trace_event list ref ->
  ?label_counters:(string -> int ref) ->
  t ->
  Phv.t ->
  unit
(** Interpret the control against the program's own table and register
    environments — the reference path. *)

val compile_control :
  ?label_counters:(string -> int ref) -> ?layout:Phv.layout -> t -> Control.compiled
(** Precompile the control against the same environments and the PHV
    layout it will run on ({!Control.compile}); run with
    {!Control.run_compiled}. [label_counters] (the per-NF telemetry
    hook) is resolved per label at compile time. *)

val resources : t -> Resources.t
(** Control demand plus register SRAM. *)

val pp : Format.formatter -> t -> unit

val empty : name:string -> decls:Hdr.decl list -> parser:Parser_graph.t -> t
(** A pass-through program: no tables, empty control. *)
