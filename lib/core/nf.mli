(** Network-function definitions against Dejavu's control-block
    programming interface (§3.1): an NF supplies its parser slice, its
    tables, and a control body over the [hdr] argument the generic
    parser instantiates. Platform metadata never appears — NFs talk to
    the framework exclusively through the SFC header fields. *)

type gate =
  | Sfc_indexed
      (** Normal NF: the framework wraps the body in a
          [check_nextNF] gate keyed on (service path id, service index)
          and bumps the index after it runs. *)
  | On_missing_sfc
      (** A classifier-style NF that runs when the packet carries no SFC
          header yet (and is expected to push one). *)

type t = {
  name : string;
  description : string;
  parser : P4ir.Parser_graph.t;
      (** the NF's own parser DAG, with canonical (header@offset) ids *)
  tables : P4ir.Table.t list;  (** unprefixed names; entries preinstalled *)
  registers : P4ir.Register.t list;
      (** stateful externs; names must be globally unique across the
          deployment (convention: prefix with the NF name) *)
  body : P4ir.Control.block;  (** references unprefixed table names *)
  gate : gate;
}

val make :
  name:string ->
  description:string ->
  parser:P4ir.Parser_graph.t ->
  tables:P4ir.Table.t list ->
  ?registers:P4ir.Register.t list ->
  body:P4ir.Control.block ->
  ?gate:gate ->
  unit ->
  t
(** Validates: table names unique, body references only own tables and
    registers, the parser validates. Raises [Invalid_argument]
    otherwise. *)

val find_register : t -> string -> P4ir.Register.t option

val table_env : t -> P4ir.Control.table_env
val control : t -> P4ir.Control.t
(** The body as a control named [<name>_control]. *)

val resources : t -> P4ir.Resources.t
(** The "compiler report" for this NF alone: stage lower bound, memory,
    crossbar, VLIW demand. *)

val find_table : t -> string -> P4ir.Table.t option

type registry = (string * (unit -> (t, string) result)) list
(** NF constructors by name; a fresh instance per compile so table state
    is never shared between deployments. Constructors return [Error]
    when seeding their tables fails (capacity, malformed rule) — the
    result-form {!P4ir.Table.add_entry} convention — rather than
    raising. *)

val instantiate : registry -> string -> (t, string) result
(** Run the named constructor; its error (if any) is prefixed with the
    NF name. *)
