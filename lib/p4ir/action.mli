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
    the body. Raises [Invalid_argument] on arity mismatch or on a
    register primitive whose register [regs] does not know. *)

val bind_args : t -> Bitval.t list -> (string * Bitval.t) list
(** The binding step of {!run} alone: positional zip with widths
    enforced. Raises [Invalid_argument] on arity mismatch. Table entries
    bind their action data once at insert time and reuse the binding on
    every packet. *)

val run_bound : ?regs:reg_env -> t -> params:(string * Bitval.t) list -> Phv.t -> unit
(** Execute the body against pre-bound parameters (from {!bind_args}),
    skipping the per-call arity check and resize. *)

val bind_ints : t -> Bitval.t list -> int array
(** {!bind_args} lowered to the compiled form's action data: each
    argument resized to its parameter width, as an immediate int, by
    position. Raises like {!bind_args}. *)

type compiled = reg_env -> int array -> Phv.t -> unit
(** A precompiled body, run against action data from {!bind_ints}.
    Registers are still resolved per call (they arrive with the
    packet), with the same errors as {!run_bound}. *)

val compile : ?layout:Phv.layout -> t -> compiled
(** Resolve the body against a PHV layout (default
    {!Phv.empty_layout}): fields become cells, parameters positions in
    the action data, expressions {!Expr.compile}d closures. On a PHV of
    that layout the body runs on ints and allocates nothing; on any
    other PHV it runs name-resolved ({!run_bound}) after one pointer
    check. Same effects and errors as {!run_bound} either way. Raises
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

val pp : Format.formatter -> t -> unit
val pp_prim : Format.formatter -> prim -> unit
