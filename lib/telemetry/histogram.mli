(** Fixed-shape latency histograms: 64 log2 buckets, so [observe] is a
    significant-bit count and an array bump — no allocation, no
    configuration, and any two histograms merge or diff bucket by
    bucket. *)

type t

val n_buckets : int
(** 64. *)

val create : unit -> t

val bucket_of : int -> int
(** [0] for values <= 0; otherwise the value's significant-bit count
    (1 -> 1, 2..3 -> 2, 4..7 -> 3, ...), clamped to [n_buckets - 1].
    Bucket [b >= 1] covers [2^(b-1) .. 2^b - 1]. *)

val bounds : int -> int * int
(** Inclusive [(lo, hi)] of a bucket; bucket 0 is [(min_int, 0)] and the
    last bucket is open-ended at [max_int]. *)

val observe : t -> int -> unit
val count : t -> int
val sum : t -> int

val nonzero : t -> (int * int) list
(** [(bucket index, count)] for the populated buckets, ascending. *)

val quantile : t -> float -> int
(** Upper bound of the bucket holding the q-th sample (q in [0,1]);
    0 when empty. The log2 shape makes this exact to within 2x. *)

val mean : t -> float
(** 0 when empty. *)

val reset : t -> unit
val merge_into : dst:t -> t -> unit
