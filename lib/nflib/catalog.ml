open Dejavu_core

let ip = Netpkt.Ip4.of_string_exn
let pfx = Netpkt.Ip4.prefix_of_string_exn
let mac = Netpkt.Mac.of_string_exn

let tenant1_vip = ip "10.0.1.10"
let tenant1_backends = [ ip "10.0.1.101"; ip "10.0.1.102"; ip "10.0.1.103" ]
let tenant2_service = pfx "10.0.2.0/24"
let tenant3_service = pfx "10.0.3.0/24"
let blocked_subnet = pfx "198.51.100.0/24" (* the firewall denies these *)

let path_red = 10
let path_orange = 20
let path_green = 30
let path_monitor = 40
let path_protected = 50

let classifier_rules =
  [
    {
      Classifier.dst_prefix = pfx "10.0.1.0/24";
      proto = None;
      path_id = path_red;
      tenant = 1;
    };
    {
      Classifier.dst_prefix = tenant2_service;
      proto = None;
      path_id = path_orange;
      tenant = 2;
    };
    {
      Classifier.dst_prefix = tenant3_service;
      proto = None;
      path_id = path_green;
      tenant = 3;
    };
    {
      Classifier.dst_prefix = pfx "10.0.4.0/24";
      proto = None;
      path_id = path_monitor;
      tenant = 4;
    };
    {
      Classifier.dst_prefix = pfx "10.0.5.0/24";
      proto = None;
      path_id = path_protected;
      tenant = 5;
    };
  ]

let firewall_rules =
  [
    {
      Firewall.src = Some blocked_subnet;
      dst = None;
      proto = None;
      dst_port = None;
      action = Firewall.Deny;
      priority = 10;
    };
    {
      Firewall.src = None;
      dst = None;
      proto = Some Netpkt.Ipv4.proto_tcp;
      dst_port = Some 23;
      action = Firewall.Deny;
      priority = 5;
    };
  ]

let vgw_mappings =
  [
    { Vgw.dst_prefix = pfx "10.0.1.0/24"; vid = 101; tenant = 1 };
    { Vgw.dst_prefix = tenant2_service; vid = 102; tenant = 2 };
  ]

let routes =
  [
    {
      Router.prefix = pfx "10.0.0.0/16";
      next_hop_mac = mac "02:00:0a:00:00:01";
      src_mac = mac "02:00:00:00:00:fe";
    };
    {
      Router.prefix = pfx "0.0.0.0/0";
      next_hop_mac = mac "02:00:ff:ff:ff:01";
      src_mac = mac "02:00:00:00:00:fe";
    };
  ]

let nat_bindings =
  [
    { Nat.internal = ip "192.168.0.10"; public = ip "203.0.113.200" };
    { Nat.internal = ip "192.168.0.11"; public = ip "203.0.113.201" };
  ]

let dscp_assignments = [ (1, 46); (2, 26); (3, 10); (4, 18) ]

let tap_selectors =
  [ { Mirror_tap.src = None; dst = Some (pfx "10.0.4.0/24") } ]

let rate_budgets =
  [
    { Rate_limiter.tenant = 5; limit = 8 };
    { Rate_limiter.tenant = 4; limit = 1000 };
  ]

let sketch_threshold = 6

let local_vtep = ip "192.0.2.10"

let vxlan_tunnels =
  [
    {
      Vxlan_gw.dst_prefix = pfx "10.8.0.0/16";
      vni = 8001;
      local_vtep;
      remote_vtep = ip "192.0.2.20";
    };
  ]

let registry () : Nf.registry =
  [
    (Classifier.name, Classifier.create classifier_rules);
    (Firewall.name, Firewall.create firewall_rules);
    (Vgw.name, Vgw.create vgw_mappings);
    (Lb.name, Lb.create);
    (Router.name, Router.create routes);
    (Nat.name, Nat.create nat_bindings);
    (Dscp_marker.name, Dscp_marker.create dscp_assignments);
    (Mirror_tap.name, Mirror_tap.create tap_selectors);
    (Rate_limiter.name, Rate_limiter.create rate_budgets);
    ( Ddos_sketch.name,
      fun () -> Ddos_sketch.create ~threshold:sketch_threshold () );
    (Vxlan_gw.name, Vxlan_gw.create vxlan_tunnels);
  ]

let chains ~exit_port =
  [
    Chain.make ~path_id:path_red ~name:"red"
      ~nfs:[ "classifier"; "fw"; "vgw"; "lb"; "router" ]
      ~weight:0.5 ~exit_port ();
    Chain.make ~path_id:path_orange ~name:"orange"
      ~nfs:[ "classifier"; "vgw"; "router" ]
      ~weight:0.3 ~exit_port ();
    Chain.make ~path_id:path_green ~name:"green"
      ~nfs:[ "classifier"; "router" ]
      ~weight:0.2 ~exit_port ();
  ]

(* The three paths plus a monitoring chain exercising the extension NFs. *)
let extended_chains ~exit_port =
  chains ~exit_port
  @ [
      Chain.make ~path_id:path_monitor ~name:"monitor"
        ~nfs:[ "classifier"; "mirror_tap"; "dscp_marker"; "router" ]
        ~weight:0.1 ~exit_port ();
    ]

let protected_chains ~exit_port =
  chains ~exit_port
  @ [
      Chain.make ~path_id:path_protected ~name:"protected"
        ~nfs:[ "classifier"; "ddos_sketch"; "rate_limiter"; "router" ]
        ~weight:0.1 ~exit_port ();
    ]

let edge_cloud_input ?(spec = Asic.Spec.wedge_100b)
    ?(strategy = Placement.Exhaustive) ?(exit_port = 1) ?(extended = false) () =
  Compiler.default_input ~spec ~strategy ~entry_pipeline:0
    ~loopback_pipelines:[ 1 ] ~registry:(registry ())
    ~chains:(if extended then extended_chains ~exit_port else chains ~exit_port)
    ()

(* Composed (per-NF-instance) object names, as control-plane ops
   address them on a compiled chip. *)
let routes_table_name = Compose.nf_table_name ~nf:Router.name Router.table_name
let acl_table_name = Compose.nf_table_name ~nf:Firewall.name Firewall.table_name

(* --- BGP-style churn trace ---

   A deterministic mixed add/mod/del op trace over the deployment's
   FIB (172.16.0.0/12 carved into /24s) with a sprinkle of ACL rule
   churn — the update pattern of a router absorbing BGP UPDATE bursts:
   mostly announcements while the table warms, then a steady mix of
   re-announcements with changed attributes (Mod of the next-hop MAC),
   withdrawals (Del) and fresh announcements (Add). Valid by
   construction — every Mod/Del names a route that is live at that
   point of the trace — so the whole trace applies cleanly both live
   (interleaved with traffic) and cold, and the two must converge to
   identical state. *)
let fib_churn_trace ?(seed = 0x5eed) ~n () =
  let rng = Random.State.make [| seed |] in
  let base = Netpkt.Ip4.to_int64 (ip "172.16.0.0") in
  let src_mac = mac "02:00:00:00:00:fe" in
  (* Stay well under the routes table's 4096 capacity (2 baseline
     routes are already installed). *)
  let max_slots = 3000 in
  let gens = Array.make max_slots 0 in
  (* Live slots as a swap-remove vector for O(1) random picks. *)
  let live = Array.make max_slots 0 in
  let n_live = ref 0 in
  let pos = Array.make max_slots (-1) in
  let next_slot = ref 0 in
  let route_of slot =
    let addr = Netpkt.Ip4.of_int64 (Int64.add base (Int64.of_int (slot lsl 8))) in
    let nh = Int64.of_int (0x020000100000 + (slot lsl 8) + (gens.(slot) land 0xff)) in
    {
      Router.prefix = { Netpkt.Ip4.addr; len = 24 };
      next_hop_mac = Netpkt.Mac.of_int64 nh;
      src_mac;
    }
  in
  let add_slot slot =
    live.(!n_live) <- slot;
    pos.(slot) <- !n_live;
    incr n_live
  in
  let del_slot slot =
    let i = pos.(slot) in
    decr n_live;
    let last = live.(!n_live) in
    live.(i) <- last;
    pos.(last) <- i;
    pos.(slot) <- -1
  in
  let acl_rule i =
    {
      Firewall.src = Some { Netpkt.Ip4.addr = ip (Printf.sprintf "198.18.%d.0" i); len = 24 };
      dst = None;
      proto = None;
      dst_port = None;
      action = Firewall.Deny;
      priority = 100 + i;
    }
  in
  let acl_live = Array.make 64 false in
  let ops = ref [] in
  let emit o = ops := o :: !ops in
  for k = 0 to n - 1 do
    if k mod 41 = 7 then begin
      (* ACL churn rides along: toggle one of 64 deny rules. *)
      let i = Random.State.int rng 64 in
      let op = if acl_live.(i) then Ctrl.Del (Firewall.rule_entry (acl_rule i))
               else Ctrl.Add (Firewall.rule_entry (acl_rule i)) in
      acl_live.(i) <- not acl_live.(i);
      emit (Ctrl.Table (acl_table_name, op))
    end
    else begin
      let roll = Random.State.float rng 1.0 in
      if (!n_live < 64 || roll < 0.50) && !next_slot < max_slots then begin
        let slot = !next_slot in
        incr next_slot;
        add_slot slot;
        emit (Ctrl.Table (routes_table_name, Ctrl.Add (Router.route_entry (route_of slot))))
      end
      else if !n_live = 0 then begin
        (* Degenerate fallback: nothing to mod/del and the fresh-slot
           pool is spent — re-announce a withdrawn prefix. *)
        let start = Random.State.int rng !next_slot in
        let slot =
          let rec find i = if pos.((start + i) mod !next_slot) >= 0 then find (i + 1) else (start + i) mod !next_slot in
          find 0
        in
        gens.(slot) <- gens.(slot) + 1;
        add_slot slot;
        emit (Ctrl.Table (routes_table_name, Ctrl.Add (Router.route_entry (route_of slot))))
      end
      else if roll < 0.78 then begin
        (* Re-announcement: same prefix, new next hop. *)
        let slot = live.(Random.State.int rng !n_live) in
        gens.(slot) <- gens.(slot) + 1;
        emit (Ctrl.Table (routes_table_name, Ctrl.Mod (Router.route_entry (route_of slot))))
      end
      else begin
        (* Withdrawal. *)
        let slot = live.(Random.State.int rng !n_live) in
        emit (Ctrl.Table (routes_table_name, Ctrl.Del (Router.route_entry (route_of slot))));
        del_slot slot
      end
    end
  done;
  List.rev !ops

(* Public pool for the dynamic NAT variant (deployments that swap
   [Nat.create_dynamic] into the registry): /28-ish slice of the
   TEST-NET-3 block the static bindings also draw from. *)
let nat_pool =
  List.init 16 (fun i -> ip (Printf.sprintf "203.0.113.%d" (16 + i)))

let attach_handlers runtime _compiled =
  Runtime.register_nf_id runtime Lb.name Lb.nf_id;
  Runtime.register_nf_id runtime Classifier.name Classifier.nf_id;
  Runtime.register_nf_id runtime Nat.name Nat.nf_id;
  (* The LB handler installs session entries into the chip it serves —
     and records them in the state store serving that chip's shard when
     the runtime's state knob is on — so it binds per (chip, store):
     parallel replicas each get a handler over their own copy of the
     session table and their shard's persistent ledger. *)
  let lb_table = Compose.nf_table_name ~nf:Lb.name Lb.table_name in
  Runtime.on_to_cpu_state runtime Lb.name (fun chip store ->
      match Asic.Chip.find_table chip lb_table with
      | Some table ->
          let sessions = Option.map (Lb.sessions ~table) store in
          Lb.handler ?sessions ~backends:tenant1_backends ~table ()
      | None -> fun _sfc _frame -> Runtime.Consume);
  (* Same shape for the dynamic NAT. In deployments using the static
     [Nat.create] the table's default is NoAction, nothing ever punts
     with [Nat.nf_id], and this handler is inert. *)
  let nat_table = Compose.nf_table_name ~nf:Nat.name Nat.table_name in
  Runtime.on_to_cpu_state runtime Nat.name (fun chip store ->
      match Asic.Chip.find_table chip nat_table with
      | Some table ->
          let bindings = Option.map (Nat.bindings_table ~table) store in
          Nat.handler ?bindings ~pool:nat_pool ~table ()
      | None -> fun _sfc _frame -> Runtime.Consume)
