(** Per-tenant rate limiter (stateful extension NF): a packet counter in
    a register array, indexed by the tenant id the classifier stored in
    the SFC context. A tenant over its per-window packet budget is
    dropped; the control plane resets the window by clearing the
    register — the paper's "more advanced NFs" direction, exercising
    the stateful externs of the IR. *)

type budget = { tenant : int; limit : int }

val name : string
val register_name : string
val create : budget list -> unit -> (Dejavu_core.Nf.t, string) result
(** Tenants without a budget are unlimited. *)

val reset_window : Dejavu_core.Compiler.t -> unit
(** Clear the counters (the control plane's periodic window tick). *)

val count_of : Dejavu_core.Compiler.t -> tenant:int -> int
(** Packets this window, as the data plane sees them. *)

val counts :
  Dejavu_core.State_store.t -> (int, int) Dejavu_core.State_store.table
(** Register (or adopt) the per-tenant window counters on [store] —
    bounded and TTL-swept, unlike the grow-forever Hashtbl this
    replaces. A counter expiring mid-window restarts the tenant from
    zero, the same semantics as the data plane's cleared register. *)

val reference :
  budget list ->
  counts:(int, int) Dejavu_core.State_store.table ->
  tenant:int ->
  [ `Pass | `Drop ]
(** Pure model: one packet arrives for [tenant]; updates [counts] and
    says what the data plane should have done. *)
