(** The repo's one JSON writer: a value type and one printer, behind the
    BENCH_*.json files, [divergence.json] and every telemetry export —
    just enough to serialize without a dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members in the order given *)

val fixed : int -> float -> t
(** [fixed d x] is [x] rounded to [d] decimals, so a measured value
    prints with the precision it carries instead of every binary
    digit. *)

val to_string : ?pretty:bool -> t -> string
(** The one printer. Members are separated by [", "] and keys by
    [": "]; ints print without a fraction, floats as the shortest
    decimal that reads back as the same float, and a non-finite float
    as [null]. The default, compact form is one line with no newline —
    what JSON-lines output needs. [~pretty:true] breaks every list or
    object that would run past 120 columns onto one member per line,
    indented by two spaces, and keeps the rest on one line. *)

val str : string -> string
(** A quoted, escaped JSON string literal. *)
