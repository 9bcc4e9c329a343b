(** Register arrays — the stateful extern of the RMT architecture.
    Each register is an array of fixed-width cells living in a stage's
    SRAM; actions read/modify/write them at line rate, and the control
    plane can inspect or clear them. *)

type t

val make : name:string -> size:int -> width:int -> t
(** [size] cells of [width] (1..64) bits each, all zero. *)

val name : t -> string
val size : t -> int
val width : t -> int

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
    as an immediate int. Allocates nothing unless a recorder is armed. *)

val write_int : t -> int -> int -> unit
(** The data-plane write: {!write} from an immediate int (a non-negative
    value of at most 62 bits), resized to the cell width. *)

val index_mask : t -> int
(** Registers are sized to powers of two on the chip; indices are
    masked with [size' - 1] where [size'] is [size] rounded up. Both
    access paths and hash outputs are AND-ed with this. *)

val clear : t -> unit
(** Zero every cell and bump the {!epoch} — a control-plane reset that
    invalidates any state memoized against this register. *)

val fold : (int -> Bitval.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the nonzero cells (control-plane inspection). *)

(** {2 Invalidation epoch and access recorders}

    Support for memoization layers (the runtime flow cache): the epoch
    counts control-plane resets, and the recorders — when armed —
    observe every data-plane access with the masked index and the raw
    cell value. {!copy} starts both fresh. When no recorder is armed
    the access paths pay a single option match. *)

val epoch : t -> int
(** Incremented by {!clear}. *)

val set_on_read : t -> (int -> int64 -> unit) -> unit
(** Arm the read recorder, in place of any armed before: called by
    {!read} with the masked index and the raw cell value. *)

val set_on_write : t -> (int -> int64 -> unit) -> unit
(** Arm the write recorder: called by {!write} with the masked index
    and the stored (width-resized) value. *)

val read_raw : t -> int -> int64
(** The raw cell value at the masked index, without constructing a
    {!Bitval.t} and without firing the read recorder — for validating
    memoized reads against live state. *)

val copy : t -> t
(** A deep copy: same name and width, private cell array initialized to
    the current contents. Used by {!Asic.Chip.replicate} to give each
    domain its own register state. *)

val sram_blocks : t -> int
(** SRAM demand: cells x width over the block size, at least 1. *)

val pp : Format.formatter -> t -> unit
