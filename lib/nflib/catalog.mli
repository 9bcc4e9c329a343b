(** The production edge-cloud deployment of Fig. 2: three tenants, three
    service paths (red/orange/green) over five NFs, preconfigured so
    examples, tests and benches all drive the same setup. *)

val tenant1_vip : Netpkt.Ip4.t
(** The load-balanced service address (tenant 1, the "red" chain). *)

val tenant1_backends : Netpkt.Ip4.t list

val path_red : int

val registry : unit -> Dejavu_core.Nf.registry
(** classifier, fw, vgw, lb, router plus the extension NFs (nat,
    dscp_marker, mirror_tap), all with the deployment's rules. *)

val chains : exit_port:int -> Dejavu_core.Chain.t list
(** Fig. 2's three paths: red = classifier-fw-vgw-lb-router (50% of
    traffic), orange = classifier-vgw-router (30%), green =
    classifier-router (20%). *)

val protected_chains : exit_port:int -> Dejavu_core.Chain.t list
(** The three paths plus a DDoS-protected, rate-limited chain
    exercising the stateful NFs (tenant 5, 10.0.5.0/24, per-window
    budget of 8 packets, sketch threshold 6). *)

val edge_cloud_input :
  ?spec:Asic.Spec.t ->
  ?strategy:Dejavu_core.Placement.strategy ->
  ?exit_port:int ->
  ?extended:bool ->
  unit ->
  Dejavu_core.Compiler.input
(** The §5 prototype configuration: entry pipeline 0, pipeline 1's
    Ethernet ports in loopback mode. *)

val nat_pool : Netpkt.Ip4.t list
(** The public-address pool the dynamic NAT handler allocates from. *)

val attach_handlers : Dejavu_core.Runtime.t -> Dejavu_core.Compiler.t -> unit
(** Register the LB and dynamic-NAT miss handlers (and NF ids) on a
    runtime, state-store-aware: when the runtime's state knob is
    [Bounded], each handler records its per-flow state in the store
    serving its shard (tables ["lb.sessions"], ["nat.bindings"]) and the
    stores' evictions delete the matching chip entries. With the static
    NAT of {!registry} nothing punts with the NAT id, so its handler is
    inert. *)

val routes_table_name : string
(** The router FIB's composed table name on a compiled chip — what
    control-plane ops address. *)

val acl_table_name : string
(** The firewall ACL's composed table name on a compiled chip. *)

val fib_churn_trace : ?seed:int -> n:int -> unit -> Dejavu_core.Ctrl.op list
(** A deterministic BGP-style churn trace of [n] typed ops: mostly FIB
    announcements (Add of /24s under 172.16.0.0/12) while the table
    warms, then a mix of re-announcements with a changed next hop
    (Mod), withdrawals (Del) and fresh announcements, plus occasional
    firewall ACL rule toggles. Valid by construction — every Mod/Del
    names a route live at that point — so the trace applies cleanly
    both live under traffic and cold, converging to identical state.
    Stays within the FIB's capacity alongside the deployment's
    baseline routes. *)
