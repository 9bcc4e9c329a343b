(** Binary min-heap over integer priorities with integer payloads — the
    Dijkstra frontier used by {!Traversal.solve}. Stale entries are
    handled by the caller (lazy deletion): pushing the same payload
    again with a better priority is the expected idiom. *)

type t

val create : int -> t
(** [create capacity_hint] — the heap grows past the hint on demand. *)

val push : t -> prio:int -> int -> unit

val pop : t -> (int * int) option
(** Cheapest [(prio, payload)]; ties broken arbitrarily (but
    deterministically). *)
