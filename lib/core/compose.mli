(** NF composition (§3.2): turn a pipelet's layout into a single loadable
    program.

    Every NF body is wrapped in Dejavu machinery (Fig. 5): a
    [check_nextNF] gate keyed on (service path id, service index), an
    index bump after the NF, and a [check_sfcFlags] table translating the
    SFC header's flags into platform metadata. Sequential group members
    run back to back; parallel group members share an if/else-if ladder
    so only one runs per pass. Ingress programs end with the branching
    table (§3.4); egress programs end with the SFC strip logic that fires
    on the final pass. *)

type built = {
  program : P4ir.Program.t;
  framework_tables : string list;
      (** names of all Dejavu-generated tables in this program *)
  check_next_of : (string * string) list;
      (** NF name -> its check_nextNF table name *)
  branching_table : string option;  (** ingress pipelets only *)
  framework_gateways : int;
      (** [If] conditions added by the framework (not by NF bodies) *)
}

val nf_table_name : nf:string -> string -> string
(** How NF tables are renamed on composition: ["<nf>__<table>"]. *)

val check_next_name : string -> string
val check_flags_name : string -> string

val proceed_action : string
(** The action name [check_nextNF] runs when the NF is next. *)

(** Branching-table action names. *)

val act_to_out : string
val act_to_port : string
val act_resubmit : string

val build :
  generic_parser:P4ir.Parser_graph.t ->
  id:Asic.Pipelet.id ->
  layout:Layout.pipelet_layout ->
  nf_of:(string -> (Nf.t, string) result) ->
  (built, string) result
(** Build the program for one pipelet. Pipelets with an empty layout
    still get the generic parser plus the branching table (ingress) or
    strip block (egress), so recirculated traffic keeps flowing. *)
