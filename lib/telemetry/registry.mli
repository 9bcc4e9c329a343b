(** The metrics registry: named counters (bare [int ref]s, so the hot
    path bumps them with [incr]) and log2 histograms, registered once
    and snapshotted on demand. Snapshots are plain data — diffable
    against an earlier snapshot and serializable to JSON or a
    human-readable table. *)

type t

val create : unit -> t

val counter : t -> string -> int ref
(** Find-or-create. The returned ref IS the live counter; callers keep
    it and [incr] it directly. *)

val histogram : t -> string -> Histogram.t
(** Find-or-create. *)

val find_counter : t -> string -> int ref option
val find_histogram : t -> string -> Histogram.t option
val reset : t -> unit
(** Zero every counter and histogram (registrations survive). *)

val merge : into:t -> t -> unit
(** [merge ~into src] folds [src] into [into]: counters are summed,
    histograms added bucket-wise (count and sum included). Names absent
    from [into] are created. [src] is not modified. This is how
    per-domain registries from a parallel run collapse into one. *)

(** {2 Snapshots} *)

type value =
  | Vcount of int
  | Vhist of {
      count : int;
      sum : int;
      mean : float;
      p50 : int;
      p99 : int;
      buckets : (int * int) list;  (** (log2 bucket index, count), ascending *)
    }

type snapshot = (string * value) list
(** Registration order. *)

val snapshot : t -> snapshot

val delta : since:snapshot -> snapshot -> snapshot
(** [delta ~since now]: counters and histogram bucket counts in [now]
    minus their values in [since] (absent in [since] = 0). Quantiles and
    means are recomputed over the difference. *)

val value_fields : value -> (string * Json.t) list
(** A value's JSON members: [value] for a counter; [count], [sum],
    [mean], [p50], [p99] and [buckets] (each bucket's count keyed by its
    lower bound) for a histogram. The one rendering of a histogram:
    {!to_json} nests these members as its object and
    {!Export.json_lines} puts them on its line. *)

val to_json : snapshot -> string
(** One JSON object: counters as numbers, histograms as the objects of
    {!value_fields}. *)

val pp : Format.formatter -> snapshot -> unit
(** An aligned human-readable table. *)
