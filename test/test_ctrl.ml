(* The live control plane: typed ops and their error paths through the
   runtime's one door ([apply_ops]) and its counters, flow-cache
   invalidation scoped to ops' touched tables, and the live-vs-cold
   digest convergence property for sharded engines. *)

open Dejavu_core

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let ip = Netpkt.Ip4.of_string_exn
let pfx = Netpkt.Ip4.prefix_of_string_exn
let mac = Netpkt.Mac.of_string_exn
let routes = Nflib.Catalog.routes_table_name

let compile () =
  Result.get_ok
    (Compiler.compile
       (Nflib.Catalog.edge_cloud_input ~strategy:Placement.Greedy ()))

let engine ~domains ~cache =
  {
    Runtime.Engine.default with
    Runtime.Engine.domains;
    cache =
      (if cache then Runtime.Engine.Emc { capacity = 4096 }
       else Runtime.Engine.Off);
  }

let runtime ?(domains = 1) ?(cache = false) () =
  let compiled = compile () in
  let rt = Runtime.create ~engine:(engine ~domains ~cache) compiled in
  Nflib.Catalog.attach_handlers rt compiled;
  rt

let route ?(nh = "02:00:0a:00:00:01") prefix =
  {
    Nflib.Router.prefix = pfx prefix;
    next_hop_mac = mac nh;
    src_mac = mac "02:00:00:00:00:fe";
  }

let route_op ?nh prefix f =
  Ctrl.Table (routes, f (Nflib.Router.route_entry (route ?nh prefix)))

let tcp ~src ~dst ~src_port ~dst_port =
  Netpkt.Pkt.encode
    (Netpkt.Pkt.tcp_flow
       ~src_mac:(mac "02:00:00:00:00:01")
       ~dst_mac:(mac "02:00:00:00:00:02")
       {
         Netpkt.Flow.src = ip src;
         dst = ip dst;
         proto = Netpkt.Ipv4.proto_tcp;
         src_port;
         dst_port;
       })

(* Green (classifier-router) and orange (classifier-vgw-router) flows
   only: neither punts to the CPU, so traffic mutates no control-plane
   state and live-vs-cold digests stay comparable even on the
   sequential engine. *)
let quiet_traffic i n =
  List.init n (fun j ->
      let k = (i * n) + j in
      let frame =
        if k mod 2 = 0 then
          tcp ~src:"203.0.113.7"
            ~dst:(Printf.sprintf "10.0.3.%d" (1 + (k mod 200)))
            ~src_port:(40000 + (k mod 97)) ~dst_port:443
        else
          tcp ~src:"203.0.113.8"
            ~dst:(Printf.sprintf "10.0.2.%d" (1 + (k mod 200)))
            ~src_port:(41000 + (k mod 89)) ~dst_port:80
      in
      (0, frame))

let table_size rt name =
  match Asic.Chip.find_table (Runtime.chip rt) name with
  | Some t -> P4ir.Table.size t
  | None -> Alcotest.fail ("table not found: " ^ name)

(* --- typed ops through the front door --- *)

let test_apply_ops_add_mod_del () =
  let rt = runtime () in
  let n0 = table_size rt routes in
  (match
     Runtime.apply_ops rt [ route_op "172.20.5.0/24" (fun e -> Ctrl.Add e) ]
   with
  | Ok n -> check Alcotest.int "one op applied" 1 n
  | Error e -> Alcotest.fail e);
  check Alcotest.int "entry installed" (n0 + 1) (table_size rt routes);
  (* Mod rebinds in place: size unchanged, new args visible. *)
  (match
     Runtime.apply_ops rt
       [ route_op ~nh:"02:00:00:00:99:99" "172.20.5.0/24" (fun e -> Ctrl.Mod e) ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.int "mod keeps size" (n0 + 1) (table_size rt routes);
  (match
     Runtime.apply_ops rt [ route_op "172.20.5.0/24" (fun e -> Ctrl.Del e) ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.int "entry removed" n0 (table_size rt routes);
  check Alcotest.bool "double delete errors" true
    (Result.is_error
       (Runtime.apply_ops rt [ route_op "172.20.5.0/24" (fun e -> Ctrl.Del e) ]))

let test_apply_errors () =
  let rt = runtime () in
  check Alcotest.bool "unknown table errors" true
    (Result.is_error
       (Runtime.apply_ops rt [ Ctrl.Table ("no_such_table", Ctrl.Clear) ]));
  check Alcotest.bool "unknown register errors" true
    (Result.is_error (Runtime.apply_ops rt [ Ctrl.Reg_reset "no_such_reg" ]));
  (* apply_all stops at the first failure and reports its position;
     the prefix stays applied (P4Runtime-style partial accept). *)
  let n0 = table_size rt routes in
  match
    Runtime.apply_ops rt
      [
        route_op "172.21.0.0/24" (fun e -> Ctrl.Add e);
        route_op "172.22.0.0/24" (fun e -> Ctrl.Del e);
        route_op "172.23.0.0/24" (fun e -> Ctrl.Add e);
      ]
  with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error e ->
      check Alcotest.bool "position prefixed" true
        (String.length e >= 5 && String.sub e 0 5 = "op 1:");
      check Alcotest.int "prefix applied, suffix not" (n0 + 1)
        (table_size rt routes)

let test_reg_reset () =
  (* The protected deployment carries real register state (the rate
     limiter's per-tenant counters); traffic fills it, Reg_reset clears
     it. *)
  let compiled =
    Result.get_ok
      (Compiler.compile
         (Compiler.default_input
            ~registry:(Nflib.Catalog.registry ())
            ~chains:(Nflib.Catalog.protected_chains ~exit_port:1)
            ~strategy:Placement.Greedy ()))
  in
  let rt = Runtime.create compiled in
  Nflib.Catalog.attach_handlers rt compiled;
  let pkt =
    tcp ~src:"203.0.113.7" ~dst:"10.0.5.9" ~src_port:40000 ~dst_port:443
  in
  ignore (Runtime.process_batch rt [ (0, pkt); (0, pkt) ]);
  check Alcotest.bool "counter filled by traffic" true
    (Nflib.Rate_limiter.count_of compiled ~tenant:5 > 0);
  (match Runtime.apply_ops rt [ Ctrl.Reg_reset "rl_counters" ] with
  | Ok n -> check Alcotest.int "one op" 1 n
  | Error e -> Alcotest.fail e);
  check Alcotest.int "counter cleared" 0
    (Nflib.Rate_limiter.count_of compiled ~tenant:5)

(* The one door counts what it applies: at [Counters], an applied
   batch adds its ops to [ctrl.ops_applied], and a failed batch counts
   once in [ctrl.batches_failed], its applied prefix in neither. *)
let test_apply_ops_counted () =
  let compiled = compile () in
  let rt =
    Runtime.create
      ~engine:
        { Runtime.Engine.default with telemetry = Telemetry.Level.Counters }
      compiled
  in
  let count name =
    match List.assoc_opt name (Option.get (Runtime.snapshot rt)) with
    | Some (Telemetry.Registry.Vcount n) -> n
    | _ -> Alcotest.fail (name ^ " missing")
  in
  let applied = count "ctrl.ops_applied"
  and failed = count "ctrl.batches_failed" in
  let add prefix = route_op prefix (fun e -> Ctrl.Add e) in
  (match
     Runtime.apply_ops rt
       [ add "172.27.0.0/24"; add "172.27.1.0/24"; add "172.27.2.0/24" ]
   with
  | Ok n -> check Alcotest.int "three ops applied" 3 n
  | Error e -> Alcotest.fail e);
  check Alcotest.int "ops_applied rose by 3" (applied + 3)
    (count "ctrl.ops_applied");
  check Alcotest.int "no batch failed" failed (count "ctrl.batches_failed");
  check Alcotest.bool "a batch naming no table fails" true
    (Result.is_error
       (Runtime.apply_ops rt
          [
            add "172.27.3.0/24";
            Ctrl.Table ("no_such_table", Ctrl.Clear);
            add "172.27.4.0/24";
          ]));
  check Alcotest.int "batches_failed rose by 1" (failed + 1)
    (count "ctrl.batches_failed");
  check Alcotest.int "ops_applied unchanged" (applied + 3)
    (count "ctrl.ops_applied")

(* --- flow-cache invalidation by ops --- *)

let test_del_invalidates_cached_flow () =
  let rt = runtime ~cache:true () in
  let pkt =
    tcp ~src:"203.0.113.7" ~dst:"10.0.3.77" ~src_port:40001 ~dst_port:443
  in
  let out rt =
    match Runtime.process rt ~in_port:0 pkt with
    | Ok { Runtime.verdict = Asic.Chip.Emitted { frame; _ }; _ } -> frame
    | Ok _ -> Alcotest.fail "expected an emitted frame"
    | Error e -> Alcotest.fail e
  in
  let stats () = Flow_cache.stats (Option.get (Runtime.flow_cache rt)) in
  let before = out rt in
  check Alcotest.bytes "cached replay is byte-identical" before (out rt);
  check Alcotest.bool "second packet hit the cache" true
    ((stats ()).Flow_cache.hits >= 1);
  (* Delete the route the cached flow matched (10.0.3.x rides
     10.0.0.0/16): the memoized verdict must die with it. *)
  (match
     Runtime.apply_ops rt [ route_op "10.0.0.0/16" (fun e -> Ctrl.Del e) ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let after_del = out rt in
  check Alcotest.bool "stale verdict not replayed" true
    (not (Bytes.equal before after_del));
  check Alcotest.bool "cache recorded the epoch invalidation" true
    ((stats ()).Flow_cache.invalidations >= 1);
  (* Oracle: a cold runtime that never had the route behaves identically. *)
  let oracle = runtime () in
  (match
     Runtime.apply_ops oracle [ route_op "10.0.0.0/16" (fun e -> Ctrl.Del e) ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.bytes "matches the cold-deleted oracle" (out oracle) after_del;
  (* Mod invalidates just like Del: rebind the default route's next hop
     and the (re-cached) flow must pick it up. *)
  (match
     Runtime.apply_ops rt
       [ route_op ~nh:"02:00:00:00:77:77" "0.0.0.0/0" (fun e -> Ctrl.Mod e) ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let after_mod = out rt in
  check Alcotest.bool "mod invalidated the re-cached verdict" true
    (not (Bytes.equal after_del after_mod))

(* The framework's own tables are dependencies of a cached verdict
   like any NF table, packed two-key and empty keyless ones included:
   clearing the router's check_nextNF table (which skips the router)
   must kill the memoized verdict, and installing an entry in an empty
   check_sfcFlags table — which probes nothing, yet still records the
   lookup — must invalidate it too, with the same output. *)
let test_dv_op_invalidates_cached_flow () =
  let rt = runtime ~cache:true () in
  let oracle = runtime () in
  let pkt =
    tcp ~src:"203.0.113.7" ~dst:"10.0.3.77" ~src_port:40002 ~dst_port:443
  in
  let out rt =
    match Runtime.process rt ~in_port:0 pkt with
    | Ok { Runtime.verdict = Asic.Chip.Emitted { frame; _ }; _ } -> frame
    | Ok _ -> Alcotest.fail "expected an emitted frame"
    | Error e -> Alcotest.fail e
  in
  let stats () = Flow_cache.stats (Option.get (Runtime.flow_cache rt)) in
  let apply rt ops =
    match Runtime.apply_ops rt ops with Ok _ -> () | Error e -> Alcotest.fail e
  in
  let before = out rt in
  check Alcotest.bytes "cached replay is byte-identical" before (out rt);
  let invalidations = (stats ()).Flow_cache.invalidations in
  let flags = Compose.check_flags_name "router" in
  apply rt [ Ctrl.Table (flags, Ctrl.Add { P4ir.Table.priority = 0; patterns = [];
                                          action = "dv_translate"; args = [] }) ];
  check Alcotest.bytes "same verdict after the flags install" before (out rt);
  check Alcotest.bool "the empty flags table was a dependency" true
    ((stats ()).Flow_cache.invalidations > invalidations);
  let skip_router = [ Ctrl.Table (Compose.check_next_name "router", Ctrl.Clear) ] in
  apply rt skip_router;
  apply oracle skip_router;
  let after = out rt in
  check Alcotest.bool "stale verdict not replayed" true (not (Bytes.equal before after));
  check Alcotest.bytes "matches the uncached runtime" (out oracle) after

(* --- live = cold convergence --- *)

let chunk n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 l

(* A random churn trace applied live — interleaved with traffic, flow
   cache on, k ∈ {1, 2, 4} domains — must leave the chip in exactly the
   state a cold runtime reaches applying the same trace with no traffic
   in flight, and the two must then forward a probe batch of the
   four-class mix alike (one sequential batch each, equal digests). The
   trace gets a mid-stream Del (and later re-Add) of the route the
   cached green flows match, so the invalidation path runs while the
   flows are hot. *)
let prop_live_equals_cold =
  QCheck.Test.make ~name:"op trace applied live = applied cold (k in {1,2,4})"
    ~count:3 QCheck.small_nat (fun seed ->
      let base = Nflib.Catalog.fib_churn_trace ~seed ~n:120 () in
      let third = List.length base / 3 in
      let trace =
        List.concat
          (List.mapi
             (fun i ops ->
               if i = 0 then ops @ [ route_op "10.0.0.0/16" (fun e -> Ctrl.Del e) ]
               else if i = 1 then
                 ops @ [ route_op "10.0.0.0/16" (fun e -> Ctrl.Add e) ]
               else ops)
             (chunk third base))
      in
      let cold = runtime () in
      (match Runtime.apply_ops cold trace with
      | Ok _ -> ()
      | Error e -> failwith e);
      let want = Ctrl.state_digest (Runtime.chip cold) in
      let probe = Fixtures.mixed_workload 48 in
      let probed rt = (Runtime.process_batch rt probe).Runtime.digest in
      let cold_probe = probed cold in
      List.for_all
        (fun domains ->
          let rt = runtime ~domains ~cache:true () in
          List.iteri
            (fun i ops ->
              ignore (Runtime.apply_ops rt ops);
              ignore (Runtime.process_batch_parallel rt (quiet_traffic i 8)))
            (chunk 25 trace);
          Int64.equal (Ctrl.state_digest (Runtime.chip rt)) want
          && Int64.equal (probed rt) cold_probe)
        [ 1; 2; 4 ])

(* --- replicas: copy on write --- *)

let acl = Nflib.Catalog.acl_table_name
let lb_sessions = Compose.nf_table_name ~nf:Nflib.Lb.name Nflib.Lb.table_name

let session_tuple k =
  {
    Netpkt.Flow.src = Netpkt.Ip4.of_octets 203 0 113 (1 + k);
    dst = Nflib.Catalog.tenant1_vip;
    proto = Netpkt.Ipv4.proto_tcp;
    src_port = 5000 + k;
    dst_port = 80;
  }

(* One op on the FIB, the ACL or the LB session table, keyed from a
   small range so that Mods and Dels often find their entry and Adds
   sometimes duplicate one; one op in eight clears its table. *)
let cow_op (table, kind, key, arg) =
  let k = key mod 6 and a = arg mod 4 in
  let op e =
    match kind mod 8 with
    | 0 | 1 | 2 -> Ctrl.Add e
    | 3 | 4 -> Ctrl.Mod e
    | 5 | 6 -> Ctrl.Del e
    | _ -> Ctrl.Clear
  in
  match table mod 3 with
  | 0 ->
      Ctrl.Table
        ( routes,
          op
            (Nflib.Router.route_entry
               (route
                  ~nh:(Printf.sprintf "02:00:0a:00:00:%02x" (a + 1))
                  (Printf.sprintf "172.20.%d.0/24" k))) )
  | 1 ->
      Ctrl.Table
        ( acl,
          op
            (Nflib.Firewall.rule_entry
               {
                 Nflib.Firewall.src = Some (pfx (Printf.sprintf "198.18.%d.0/24" k));
                 dst = None;
                 proto = None;
                 dst_port = None;
                 action = (if a land 1 = 0 then Nflib.Firewall.Deny else Nflib.Firewall.Permit);
                 priority = 100 + k;
               }) )
  | _ ->
      Ctrl.Table
        ( lb_sessions,
          op
            (Nflib.Lb.session_entry (session_tuple k)
               (Netpkt.Ip4.of_octets 10 0 1 (10 + a))) )

(* Random ops may fail (a Del of an absent entry): each applies alone. *)
let apply_each chip ops = List.iter (fun o -> ignore (Ctrl.apply chip o)) ops

let preload = List.init 9 (fun i -> cow_op (i, i mod 3, i, i))

let preloaded_chip () =
  let chip = (compile ()).Compiler.chip in
  apply_each chip preload;
  chip

(* Each table's lookup of probe [k], on a PHV whose first key field
   holds the probe's value. *)
let probe_lookups chip =
  let frame = tcp ~src:"203.0.113.7" ~dst:"10.0.3.50" ~src_port:1234 ~dst_port:443 in
  let ingress = List.hd (Asic.Chip.pipelets chip) in
  let key_value name k =
    if String.equal name routes then
      Netpkt.Ip4.to_int64 (Netpkt.Ip4.of_octets 172 20 k 9)
    else if String.equal name acl then
      Netpkt.Ip4.to_int64 (Netpkt.Ip4.of_octets 198 18 k 7)
    else Int64.logand (Nflib.Lb.session_hash (session_tuple k)) 0xffffffffL
  in
  List.concat_map
    (fun name ->
      let tbl = Option.get (Asic.Chip.find_table chip name) in
      List.init 6 (fun k ->
          let phv =
            match Asic.Pipelet.parse ingress frame with
            | Ok (phv, _) -> phv
            | Error e -> Alcotest.fail e
          in
          let key = List.hd (P4ir.Table.keys tbl) in
          P4ir.Phv.set phv key.P4ir.Table.field
            (P4ir.Bitval.make ~width:key.P4ir.Table.width (key_value name k));
          P4ir.Table.lookup tbl phv))
    [ routes; acl; lb_sessions ]

(* Two replicas of one chip and the chip itself each apply their own
   random op stream, all three at once on three domains. Every chip
   must then hold exactly what a cold chip holds after applying only
   that chip's ops: the replicas share their source's table bodies
   until each writes, and no write — in place or into a private copy —
   may reach another holder. *)
let prop_replicas_copy_on_write =
  let stream = QCheck.(list_of_size Gen.(int_bound 12) (quad small_nat small_nat small_nat small_nat)) in
  QCheck.Test.make ~name:"source and replicas each = cold chip + own ops" ~count:12
    QCheck.(triple stream stream stream)
    (fun (s_raw, r1_raw, r2_raw) ->
      let ops = List.map cow_op in
      let s_ops = ops s_raw and r1_ops = ops r1_raw and r2_ops = ops r2_raw in
      let src = preloaded_chip () in
      let r1 = Asic.Chip.replicate src and r2 = Asic.Chip.replicate src in
      ignore
        (Dpool.run ~domains:3
           [
             (fun () -> apply_each src s_ops);
             (fun () -> apply_each r1 r1_ops);
             (fun () -> apply_each r2 r2_ops);
           ]);
      List.for_all
        (fun (chip, ops) ->
          let cold = preloaded_chip () in
          apply_each cold ops;
          Int64.equal (Ctrl.state_digest chip) (Ctrl.state_digest cold)
          && probe_lookups chip = probe_lookups cold)
        [ (src, s_ops); (r1, r1_ops); (r2, r2_ops) ])

(* Minor words allocated by [f ()]: this domain's own counter. The
   runtime-wide counters [Gc.quick_stat] reads also take in a joined
   domain's allocations whenever its runtime termination completes,
   which may be after [Dpool.run] returns. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

let test_release () =
  let src = preloaded_chip () in
  apply_each src
    (List.init 64 (fun i ->
         route_op (Printf.sprintf "172.21.%d.0/24" i) (fun e -> Ctrl.Add e)));
  let fib chip = Option.get (Asic.Chip.find_table chip routes) in
  let add chip prefix =
    let e = Nflib.Router.route_entry (route prefix) in
    snd (minor_words (fun () -> P4ir.Table.add_entry (fib chip) e))
  in
  let held = Asic.Chip.replicate src in
  let n = P4ir.Table.size (fib src) in
  check Alcotest.int "a replica starts from its source's routes" n
    (P4ir.Table.size (fib held));
  (* [held] still shares the FIB's body: the source's write copies it. *)
  let copying = add src "172.22.0.0/24" in
  check Alcotest.int "the source's write leaves the replica as it was" n
    (P4ir.Table.size (fib held));
  let released = Asic.Chip.replicate src in
  let digest = Ctrl.state_digest src in
  Asic.Chip.release released;
  List.iter
    (fun pl ->
      List.iter
        (fun tbl ->
          check Alcotest.int
            ("released " ^ P4ir.Table.name tbl ^ " reads as empty")
            0 (P4ir.Table.size tbl))
        (Asic.Pipelet.tables pl))
    (Asic.Chip.pipelets released);
  check Alcotest.bool "a released replica's lookups miss" true
    (List.for_all (( = ) `Miss) (probe_lookups released));
  check Alcotest.int64 "releasing leaves the source as it was" digest
    (Ctrl.state_digest src);
  let in_place = add src "172.22.1.0/24" in
  check Alcotest.bool
    (Printf.sprintf
       "after release the source writes in place (%.0f words, %.0f copying)"
       in_place copying)
    true
    (in_place < 1000. && in_place *. 10. < copying)

let () =
  Alcotest.run "ctrl"
    [
      ( "ops",
        [
          Alcotest.test_case "add/mod/del through apply_ops" `Quick
            test_apply_ops_add_mod_del;
          Alcotest.test_case "error paths and partial accept" `Quick
            test_apply_errors;
          Alcotest.test_case "register reset" `Quick test_reg_reset;
          Alcotest.test_case "apply_ops counted at Counters" `Quick
            test_apply_ops_counted;
        ] );
      ( "cache",
        [
          Alcotest.test_case "del/mod invalidate cached flows" `Quick
            test_del_invalidates_cached_flow;
          Alcotest.test_case "dv_ table ops invalidate cached flows" `Quick
            test_dv_op_invalidates_cached_flow;
        ] );
      ("convergence", [ qtest prop_live_equals_cold ]);
      ( "replicas",
        [
          qtest prop_replicas_copy_on_write;
          Alcotest.test_case "release" `Quick test_release;
        ] );
    ]
