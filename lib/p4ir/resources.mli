(** MAU resource vectors and the resource-estimation pass that plays the
    role of the Tofino compiler's resource report — the paper's composer
    consumes exactly this kind of report to decide pipelet sharing. *)

type t = {
  stages : int;
  table_ids : int;
  srams : int;  (** SRAM blocks *)
  tcams : int;  (** TCAM blocks *)
  crossbar_bytes : int;
  vliws : int;  (** VLIW instruction slots *)
  gateways : int;
  hash_bits : int;
}

val zero : t
val add : t -> t -> t
val max_merge : t -> t -> t
(** Componentwise max — what parallel composition needs, because parallel
    branches can share MAU stages. *)

val sum : t list -> t
val fits : t -> cap:t -> bool
val scale : int -> t -> t

(** Per-stage capacities of the modeled switch. *)
type stage_caps = {
  cap_table_ids : int;
  cap_srams : int;
  cap_tcams : int;
  cap_crossbar_bytes : int;
  cap_vliws : int;
  cap_gateways : int;
  cap_hash_bits : int;
}

val tofino_stage_caps : stage_caps
(** Tofino-class per-stage capacities (16 logical tables, 80 SRAM blocks,
    24 TCAM blocks, 128 crossbar bytes, 32 VLIW slots, 16 gateways,
    416 hash bits). *)

val sram_block_bits : int
val tcam_block_entries : int
val tcam_block_width : int

val of_table : Table.t -> t
(** Resource demand of one table (stages = 1): SRAM blocks for exact
    match (keys + action data + overhead, by table capacity), TCAM blocks
    for ternary/LPM/range, one table ID, crossbar bytes for the key,
    one VLIW slot per action, hash bits for exact keys. *)

val of_control : Control.table_env -> Control.t -> t
(** Whole-control demand: tables summed, stages from {!Deps.min_stages},
    gateways from the control structure. *)

val pp : Format.formatter -> t -> unit
