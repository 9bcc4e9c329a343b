(** Register arrays — the stateful extern of the RMT architecture.
    Each register is an array of fixed-width cells living in a stage's
    SRAM; actions read/modify/write them at line rate, and the control
    plane can inspect or clear them. *)

type t

val make : name:string -> size:int -> width:int -> t
(** [size] cells of [width] (1..64) bits each, all zero. *)

val name : t -> string
val size : t -> int

val read : t -> int -> Bitval.t
(** Out-of-range indices wrap: the index is AND-ed with
    {!val-index_mask}, exactly as the hardware addresses a
    power-of-two-sized SRAM array. *)

val write : t -> int -> Bitval.t -> unit
(** Same wrap rule as {!read} — the two always address the same cell
    for the same index. The value is resized to the cell width. *)

val read_int : t -> int -> width:int -> int
(** The data-plane read: {!read}'s cell and recorder call, returning the
    cell's low [width] bits (at most 62, the destination field's width)
    as an immediate int. Allocates nothing beyond what an armed recorder
    does. *)

val write_int : t -> int -> int -> unit
(** The data-plane write: {!write} from an immediate int (a non-negative
    value of at most 62 bits), resized to the cell width. *)

val index_mask : t -> int
(** Registers are sized to powers of two on the chip; indices are
    masked with [size' - 1] where [size'] is [size] rounded up. Both
    access paths and hash outputs are AND-ed with this. *)

val clear : t -> unit
(** Zero every cell (a control-plane reset). Fires no recorder. *)

val fold : (int -> Bitval.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the nonzero cells (control-plane inspection). Fires no
    recorder. *)

val set_on_access : t -> (unit -> unit) -> unit
(** Arm the access recorder, in place of any armed before: called by
    {!read}, {!write}, {!read_int} and {!write_int}, so a memoization
    layer (the runtime flow cache) can tell a run that touched this
    register from one that did not. {!copy} starts with none; when
    none is armed an access pays a single option match. *)

val copy : t -> t
(** A deep copy: same name and width, private cell array initialized to
    the current contents. Used by {!Asic.Chip.replicate} to give each
    domain its own register state. *)

val sram_blocks : t -> int
(** SRAM demand: cells x width over the block size, at least 1. *)

val pp : Format.formatter -> t -> unit
