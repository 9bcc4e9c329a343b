(** Static source NAT (extension NF): rewrites internal source addresses
    to public ones on the way out. *)

type binding = { internal : Netpkt.Ip4.t; public : Netpkt.Ip4.t }

val name : string
val table_name : string

val create : binding list -> unit -> (Dejavu_core.Nf.t, string) result
val reference : binding list -> Netpkt.Ip4.t -> Netpkt.Ip4.t
(** Identity for unbound sources. *)

(** {2 Dynamic SNAT}

    The stateful variant: the table starts empty with a to-CPU default;
    the first packet of each internal source punts, the control plane
    allocates a public address from a pool and installs the binding,
    subsequent packets rewrite on-chip. Bindings live in the runtime's
    {!Dejavu_core.State_store} when the state knob is on, so the
    binding set — and hence the chip table — is capacity-bounded with
    LRU/TTL aging. *)

val nf_id : int

val state_table_name : string
(** ["nat.bindings"] *)

val create_dynamic : ?max_size:int -> unit -> (Dejavu_core.Nf.t, string) result
(** The dynamic NF: same match/rewrite as {!create} but an empty table
    whose default action punts with {!nf_id} as the CPU reason.
    [max_size] defaults to 8192. *)

val bindings_table :
  Dejavu_core.State_store.t ->
  table:P4ir.Table.t ->
  (Netpkt.Ip4.t, Netpkt.Ip4.t) Dejavu_core.State_store.table
(** Register (or adopt) the binding ledger on [store]: internal address
    to public address. Every eviction deletes the matching chip entry
    through the typed-op layer (epoch bump, flow-cache invalidation). *)

val handler :
  ?bindings:(Netpkt.Ip4.t, Netpkt.Ip4.t) Dejavu_core.State_store.table ->
  pool:Netpkt.Ip4.t list ->
  table:P4ir.Table.t ->
  unit ->
  Dejavu_core.Runtime.handler
(** The miss handler: allocate a public address for the punted
    packet's source, record it in the ledger (when given) before
    installing the chip entry, and reinject. The allocation is a pure
    function of the source and the pool (address mod pool size),
    independent of arrival order and shard count. A ledger hit
    re-installs the stored public address (the punting chip missed: a
    fresh shard replica, or the primary after a sharded batch). *)
