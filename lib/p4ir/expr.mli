(** Expressions over PHV fields — the right-hand sides of assignments,
    gateway conditions, and hash inputs. *)

type binop =
  | Add | Sub | Mul
  | BAnd | BOr | BXor
  | Shl | Shr
  | Eq | Neq | Lt | Le | Gt | Ge   (** unsigned; result is [bit<1>] *)
  | LAnd | LOr                     (** logical; nonzero = true *)

type unop = BNot | LNot

type hash_alg = Crc32 | Crc16 | Identity

type t =
  | Const of Bitval.t
  | Field of Fieldref.t
  | Param of string            (** an action-data parameter *)
  | Bin of binop * t * t
  | Un of unop * t
  | Hash of hash_alg * int * t list  (** algorithm, output width, inputs *)
  | Valid of string            (** header validity bit *)

val const : width:int -> int -> t
val field : string -> string -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( = ) : t -> t -> t
val ( <> ) : t -> t -> t
val ( < ) : t -> t -> t
val ( && ) : t -> t -> t
val ( || ) : t -> t -> t

type env = { phv : Phv.t; params : (string * Bitval.t) list }

val eval : env -> t -> Bitval.t
(** Binary operands are resized to the left operand's width; comparison
    and logical results are [bit<1>]. Raises [Not_found] on unknown
    fields and [Invalid_argument] on unbound parameters. *)

val eval_bool : env -> t -> bool

val widest :
  field_width:(Fieldref.t -> int option) -> params:(string * int) list -> t -> int
(** The largest static width over the expression and all its
    subexpressions. A node's static width is a field's or parameter's
    declared width, the left operand's width for arithmetic, bitwise
    and shift nodes, 1 for comparisons, logic and validity tests, and
    the output width of a hash; unknown fields and parameters count as
    1 bit. The compiled int path requires it to be at most
    {!Hdr.max_width}; {!Program.validate} enforces that. *)

type compiled = { width : int; run : Phv.t -> int array -> int }
(** An expression compiled against one PHV layout: [run phv args] is
    the value as an immediate int (always below [2^width]), with
    parameters read from [args] by position. [run] must only be given
    PHVs of that layout; it allocates nothing. *)

val compile : ?params:(string * int) list -> Phv.layout -> t -> compiled
(** Resolve every field to a cell of the layout and every [Param] to
    its position in [params] (the action's parameter list). Agrees with
    {!eval} on every PHV of the layout: same value, same width, and the
    same exception ([Not_found] for a field the layout lacks,
    [Invalid_argument] for an unbound parameter), raised when the node
    is evaluated. Raises [Invalid_argument] at compile time when any
    node is wider than {!Hdr.max_width}. *)

type operand =
  | Cell of int  (** the value of this cell: a field, or a validity bit *)
  | Imm of int  (** this constant *)
  | Arg of int  (** the action datum at this position *)
  | Cell_add of int * int
      (** [Cell_add (c, k)]: cell [c] plus constant [k], unmasked *)
  | Code of (Phv.t -> int array -> int)  (** any other node *)
(** A node as {!lower} leaves it, by shape: a leaf, or a field plus a
    constant, stays an operand its reader can fuse into its own closure
    (an {!Action} assignment writes a cell from it in one closure);
    anything else is code. *)

val lower : ?params:(string * int) list -> Phv.layout -> t -> int * operand
(** {!compile} before the node's own closure is built: its static width
    and its operand. Same checks, raising at the same time. Every inner
    node but a field plus a constant comes back as [Code]: a field or
    validity bit compared with a constant, and a negated validity bit,
    as one closure that reads its cell directly; any other as one
    closure that calls its operands' closures. *)

val closure : width:int -> operand -> Phv.t -> int array -> int
(** The operand of a node of [width] bits as a closure: what {!compile}
    returns as [run]. *)

val reads : t -> Fieldref.Set.t
(** Every field the expression reads (validity tests included, as a
    pseudo-field ["<hdr>.$valid"]). *)

val pp : Format.formatter -> t -> unit
