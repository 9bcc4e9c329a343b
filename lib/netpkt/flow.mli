(** Transport 5-tuples and deterministic workload generation. *)

type five_tuple = {
  src : Ip4.t;
  dst : Ip4.t;
  proto : int;
  src_port : int;
  dst_port : int;
}

val pp_five_tuple : Format.formatter -> five_tuple -> unit
val equal_five_tuple : five_tuple -> five_tuple -> bool
val compare_five_tuple : five_tuple -> five_tuple -> int

val hash_five_tuple : five_tuple -> int64
(** CRC32 over the tuple serialized in header order (src, dst, proto,
    sport, dport) — the same hash the L4 load balancer computes. *)

val hash_five_tuple_symmetric : five_tuple -> int64
(** [hash_five_tuple] of the tuple with its endpoints ordered by
    (address, port): both directions of a connection hash alike. Shard assignment uses this so NAT/LB reply
    traffic lands on the shard that owns the forward flow's bindings;
    note it is {e not} the data-plane hash ({!hash_five_tuple}), which
    stays directed to mirror the chip's CRC unit. *)

type workload_spec = {
  seed : int;
  n_flows : int;
  client_subnet : Ip4.prefix;  (** source addresses drawn from here *)
  vip : Ip4.t;  (** all flows target this virtual IP *)
  dst_port : int;
  proto : int;
}

val default_spec : workload_spec
val generate : workload_spec -> five_tuple list
(** Deterministic: same spec, same flows. Flows are distinct. *)

val random_tuple : Random.State.t -> five_tuple
