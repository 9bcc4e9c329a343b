(** Actions: named, parameterized sequences of primitive operations. *)

type prim =
  | Assign of Fieldref.t * Expr.t
  | Set_valid of string
  | Set_invalid of string
  | Reg_read of Fieldref.t * string * Expr.t
      (** [dst = reg[index]]; the index is masked to the register size *)
  | Reg_write of string * Expr.t * Expr.t  (** [reg[index] = value] *)
  | No_op

type t = {
  name : string;
  params : (string * int) list;  (** action-data parameters: name, width *)
  body : prim list;
}

val make : string -> ?params:(string * int) list -> prim list -> t
val no_op : t
(** The conventional ["NoAction"]. *)

type reg_env = string -> Register.t option
(** Register lookup supplied by the enclosing program. *)

val no_regs : reg_env

val run : ?regs:reg_env -> t -> args:Bitval.t list -> Phv.t -> unit
(** Binds [args] to [params] positionally (widths enforced) and executes
    the body name-resolved — the reference interpreter's action. Raises
    [Invalid_argument] on arity mismatch or on a register primitive
    whose register [regs] does not know. *)

val bind_ints : t -> Bitval.t list -> int array
(** {!run}'s binding step lowered to the compiled form's action data:
    each argument resized to its parameter width, as an immediate int,
    by position. Table entries bind their action data once, at insert
    time. Raises [Invalid_argument] on arity mismatch. *)

type compiled = reg_env -> int array -> Phv.t -> unit
(** A precompiled body, run against action data from {!bind_ints}.
    Registers are still resolved per call (they arrive with the
    packet), with the same errors as {!run}. *)

val compile : layout:Phv.layout -> t -> compiled
(** Resolve the body against a PHV layout: fields become cells,
    parameters positions in the action data, expressions
    {!Expr.compile}d closures. An assignment from a field, a parameter,
    a constant or a field plus a constant ({!Expr.lower}) is one closure
    that writes its destination cell; a body of one to three primitives
    (no-ops dropped) is one closure, another length a loop. Each call
    returns a closure of its own. The body runs on ints, allocates
    nothing and must only be given PHVs of [layout]; on those it has
    the same effects and errors as {!run} (a field the layout lacks
    raises [Not_found] when its primitive runs). Raises
    [Invalid_argument] when an expression is too wide for the int path
    ({!Expr.compile}). *)

val registers_used : t -> string list

val reads : t -> Fieldref.Set.t
(** Fields read by the body's expressions. Register accesses read the
    pseudo-field ["$reg.<name>"]. *)

val writes : t -> Fieldref.Set.t
(** Fields written ([Set_valid]/[Set_invalid] count as writing
    ["<hdr>.$valid"]; any register access also writes ["$reg.<name>"],
    conservatively serializing tables that share a register — on the
    hardware they would have to share its stage). *)

val pp_prim : Format.formatter -> prim -> unit
