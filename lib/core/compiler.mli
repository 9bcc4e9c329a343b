(** End-to-end Dejavu compilation: NF registry + SFC policies + chip
    spec -> placed, merged, entry-populated programs loaded on the
    modeled ASIC, plus the resource report of Table 1. *)

type input = {
  spec : Asic.Spec.t;
  registry : Nf.registry;
  chains : Chain.t list;
  entry_pipeline : int;
  strategy : Placement.strategy;
  loopback_pipelines : int list;
      (** pipelines whose Ethernet ports go into loopback mode to buy
          recirculation bandwidth (the §5 prototype loops pipeline 1) *)
  pinned : (string * Asic.Pipelet.id) list;
      (** extra pins; classifier-style NFs are pinned to the entry
          ingress automatically *)
  mirror_port : int option;
      (** analysis port for mirror-flagged traffic *)
}

val default_input :
  ?spec:Asic.Spec.t ->
  ?entry_pipeline:int ->
  ?strategy:Placement.strategy ->
  ?loopback_pipelines:int list ->
  ?pinned:(string * Asic.Pipelet.id) list ->
  ?mirror_port:int ->
  registry:Nf.registry ->
  chains:Chain.t list ->
  unit ->
  input

type t = {
  input : input;
  chip : Asic.Chip.t;
  layout : Layout.t;
  objective : float;  (** weighted recirculation count *)
  plan : Branching.plan;
  generic_parser : P4ir.Parser_graph.t;
  built : (Asic.Pipelet.id * Compose.built) list;
}

val placement_input : input -> (Placement.input, string) result
(** The placement problem [compile] would solve for this deployment —
    chains validated and weight-normalized, NFs instantiated for their
    resource demands, classifier-style NFs auto-pinned to the entry
    ingress. Lets callers drive the placement solvers directly (e.g.
    [Placement.solve_parallel] from the CLI) without building programs
    or loading the chip. *)

val compile : input -> (t, string) result

val find_nf_table : t -> nf:string -> table:string -> P4ir.Table.t option
(** Locate an NF's (renamed) table in the loaded programs — how the
    control plane gets a handle for entry installation. *)

val find_register : t -> string -> P4ir.Register.t option
(** Locate a register by its (globally unique) name — how the control
    plane inspects or clears stateful NF state. *)

(** {2 Resource report (Table 1)} *)

type report_row = { resource : string; used : int; capacity : int; pct : float }

val framework_report : t -> report_row list
(** Dejavu framework overhead — stages occupied by dv_ tables, table IDs,
    gateways, crossbar bytes, VLIW slots, SRAM and TCAM blocks consumed
    by the framework, as fractions of the whole chip. *)

val pp_report : Format.formatter -> report_row list -> unit
val pp_summary : Format.formatter -> t -> unit
