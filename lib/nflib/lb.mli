(** The L4 load balancer of Fig. 4: CRC32 over the 5-tuple, an exact
    session table keyed on the hash that rewrites the destination IP,
    and a to-CPU default on miss. The control plane installs the session
    and reinjects. *)

val name : string
val table_name : string
val nf_id : int
val meta_decl : P4ir.Hdr.decl
(** NF-local metadata carrying the computed session hash. *)

val create : unit -> (Dejavu_core.Nf.t, string) result

val session_hash : Netpkt.Flow.five_tuple -> int64
(** The hash the data plane computes (identical to
    {!Netpkt.Flow.hash_five_tuple}). *)

val session_entry :
  Netpkt.Flow.five_tuple -> Netpkt.Ip4.t -> P4ir.Table.entry
(** The typed session entry mapping the flow's hash to a backend IP —
    what {!install_session} installs and what control-plane ops
    ([Ctrl.Add/Mod/Del]) are built around. *)

val install_session :
  P4ir.Table.t -> Netpkt.Flow.five_tuple -> Netpkt.Ip4.t -> (unit, string) result
(** Install the session through the typed-op layer
    ([Ctrl.apply_table]). *)

val pick_backend : Netpkt.Ip4.t list -> Netpkt.Flow.five_tuple -> Netpkt.Ip4.t
(** Deterministic backend choice: hash modulo the pool size. *)

val state_table_name : string
(** ["lb.sessions"] — the {!Dejavu_core.State_store} table bounding the
    punt-installed session set. *)

val sessions :
  Dejavu_core.State_store.t ->
  table:P4ir.Table.t ->
  (Netpkt.Flow.five_tuple, Netpkt.Ip4.t) Dejavu_core.State_store.table
(** Register (or adopt) the LB's session ledger on [store]: keyed by the
    exact 5-tuple, valued by the chosen backend, sharded by the
    canonical symmetric flow hash ({!Netpkt.Flow.hash_five_tuple_symmetric}
    — the same partition the runtime shards packets by). Every eviction
    — capacity or TTL — deletes the matching chip entry through the
    typed-op layer, so a bounded ledger bounds the chip table too and
    the flow cache drops any memoized verdict for the evicted flow. *)

val handler :
  ?sessions:(Netpkt.Flow.five_tuple, Netpkt.Ip4.t) Dejavu_core.State_store.table ->
  backends:Netpkt.Ip4.t list ->
  table:P4ir.Table.t ->
  unit ->
  Dejavu_core.Runtime.handler
(** The control-plane miss handler: parse the punted frame, install a
    session for its 5-tuple, clear the CPU mark and reinject. Consumes
    packets it cannot parse. With [sessions], the ledger is consulted
    first — an already-owned flow re-installs its *stored* backend (the
    punting chip missed it: a fresh shard replica, or the primary after
    a sharded batch) — and
    new sessions are written to the ledger before the chip install, so
    chip occupancy never exceeds the ledger bound. *)

val reference :
  sessions:(Netpkt.Flow.five_tuple * Netpkt.Ip4.t) list ->
  Netpkt.Flow.five_tuple ->
  [ `Rewrite of Netpkt.Ip4.t | `To_cpu ]
