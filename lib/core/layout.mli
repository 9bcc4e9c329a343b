(** Placements: which NFs sit on which pipelet, and how they are
    composed there (§3.2) — back-to-back ([Seq], costs stages, free
    transitions) or side-by-side ([Par], shares stages, transitions need
    a resubmission or recirculation). *)

type group = Seq of string list | Par of string list

type pipelet_layout = group list

type t = (Asic.Pipelet.id * pipelet_layout) list
(** One entry per pipelet that hosts NFs; pipelets absent from the list
    are empty (pass-through). *)

type coord = {
  pipelet : Asic.Pipelet.id;
  group : int;  (** group index within the pipelet's layout *)
  slot : int;  (** slot within the group *)
  kind : [ `Seq | `Par ];  (** the group's composition kind *)
}
(** Where an NF sits: everything the traversal solver consults about a
    placement. {!location}, {!position}, {!coord} and {!index} all go
    through one internal scan, so there is a single lookup path. *)

val nfs_of_pipelet : pipelet_layout -> string list
val all_nfs : t -> string list
val layout_of : t -> Asic.Pipelet.id -> pipelet_layout
(** Empty list when the pipelet hosts nothing. *)

val coord : t -> string -> coord option
(** First occurrence of the NF across the layout. *)

val location : t -> string -> Asic.Pipelet.id option
(** [coord]'s pipelet alone. *)

val position : pipelet_layout -> string -> (int * int) option
(** (group index, slot within group). *)

val group_kind : pipelet_layout -> int -> [ `Seq | `Par ]

val index : t -> (string, coord) Hashtbl.t
(** Whole-layout hash index: NF -> {!coord}. One O(n) pass instead of
    repeated {!location}/{!position} list scans — the lookup structure
    the traversal solver builds per layout, and the structure
    {!Placement}'s move-diff annealer maintains incrementally.
    First occurrence wins, matching {!coord}. *)

val validate : t -> (unit, string) result
(** Each NF appears at most once across the whole layout; no empty
    groups. *)

val stage_demand :
  (string -> P4ir.Resources.t) -> pipelet_layout -> int
(** MAU stages this layout needs for the NFs alone (framework tables
    excluded): [Seq] groups sum member stages, [Par] groups take the
    max. *)

val pp : Format.formatter -> t -> unit
val pp_pipelet_layout : Format.formatter -> pipelet_layout -> unit
