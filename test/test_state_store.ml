(* The bounded state store: QCheck differential equivalence against an
   unbounded reference model (LRU + TTL + eviction-callback ordering),
   shard migration, and the runtime-level contracts — live re-shard
   digests equal cold-built ones, and store eviction invalidates the
   flow cache's memoized verdict for the evicted flow. *)

open Dejavu_core

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let ip = Netpkt.Ip4.of_string_exn
let pfx = Netpkt.Ip4.prefix_of_string_exn

(* ------------------------------------------------------------------ *)
(* Reference model: an unbounded-by-construction assoc list in MRU
   order, with the same capacity/TTL policy applied literally from the
   spec — what the intrusive-list implementation must agree with. *)

module Model = struct
  type t = {
    cfg : State_store.config;
    mutable now : int64;
    mutable entries : (int * int * int64) list;  (* (k, v, stamp), MRU first *)
    mutable log : (State_store.evict_reason * int * int) list;  (* reversed *)
  }

  let create cfg = { cfg; now = 0L; entries = []; log = [] }

  let expired m (_, _, stamp) =
    m.cfg.State_store.ttl_ns > 0L
    && Int64.sub m.now stamp >= m.cfg.State_store.ttl_ns

  let evict m reason (k, v, _) = m.log <- (reason, k, v) :: m.log

  let insert m k v =
    if List.exists (fun (k', _, _) -> k' = k) m.entries then
      m.entries <-
        (k, v, m.now) :: List.filter (fun (k', _, _) -> k' <> k) m.entries
    else begin
      while List.length m.entries >= m.cfg.State_store.capacity do
        let tail = List.nth m.entries (List.length m.entries - 1) in
        evict m State_store.Capacity tail;
        m.entries <-
          List.filteri (fun i _ -> i < List.length m.entries - 1) m.entries
      done;
      m.entries <- (k, v, m.now) :: m.entries
    end

  let find m k =
    match List.find_opt (fun (k', _, _) -> k' = k) m.entries with
    | None -> None
    | Some ((_, v, _) as e) ->
        if expired m e then begin
          evict m State_store.Expired e;
          m.entries <- List.filter (fun (k', _, _) -> k' <> k) m.entries;
          None
        end
        else begin
          m.entries <-
            (k, v, m.now) :: List.filter (fun (k', _, _) -> k' <> k) m.entries;
          Some v
        end

  let remove m k = m.entries <- List.filter (fun (k', _, _) -> k' <> k) m.entries

  let advance m ns =
    m.now <- Int64.add m.now ns;
    if m.cfg.State_store.ttl_ns > 0L then begin
      (* Oldest-touched first = from the back of the MRU list. *)
      let rec sweep () =
        match List.rev m.entries with
        | tail :: _ when expired m tail ->
            evict m State_store.Expired tail;
            let (k, _, _) = tail in
            remove m k;
            sweep ()
        | _ -> ()
      in
      sweep ()
    end

  (* Oldest-first, like State_store.fold. *)
  let contents m = List.rev_map (fun (k, v, _) -> (k, v)) m.entries
end

type op = Insert of int * int | Find of int | Advance of int64

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> Insert (k, v)) (int_bound 15) (int_bound 99));
        (4, map (fun k -> Find k) (int_bound 15));
        (2, map (fun n -> Advance (Int64.of_int n)) (int_bound 3));
      ])

let pp_op = function
  | Insert (k, v) -> Printf.sprintf "insert %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Advance n -> Printf.sprintf "advance %Ld" n

let trace_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 120) op_gen)

(* One differential run: the store (with its eviction log recorded
   through the typed on_evict hook) against the model, comparing every
   find result, the final contents in LRU order, and the exact eviction
   sequence with reasons. *)
let differential cfg ops =
  let store = State_store.create cfg in
  let log = ref [] in
  let tbl =
    State_store.table store ~name:"t" ~key:State_store.Conv.int
      ~value:State_store.Conv.int
      ~on_evict:(fun reason k v -> log := (reason, k, v) :: !log)
      ()
  in
  let m = Model.create (State_store.config store) in
  let ok =
    List.for_all
      (fun op ->
        match op with
        | Insert (k, v) ->
            State_store.insert tbl k v;
            Model.insert m k v;
            true
        | Find k -> State_store.find tbl k = Model.find m k
        | Advance ns ->
            let n = State_store.advance store ns in
            let before = List.length m.Model.log in
            Model.advance m ns;
            n = List.length m.Model.log - before)
      ops
  in
  ok
  && State_store.now store = m.Model.now
  && State_store.length tbl = List.length m.Model.entries
  && State_store.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.rev
     = Model.contents m
  && !log = m.Model.log

let prop_bounded_equals_reference =
  QCheck.Test.make
    ~name:"bounded store = reference model (LRU at capacity 4, TTL 5)"
    ~count:300 trace_arb
    (differential { State_store.capacity = 4; ttl_ns = 5L })

let prop_large_capacity_equals_reference =
  QCheck.Test.make
    ~name:"under-capacity store = unbounded reference (no TTL)" ~count:300
    trace_arb
    (differential { State_store.capacity = 1024; ttl_ns = 0L })

(* [find_or_insert] is [find], then [insert] on a miss, over one probe:
   a store driven by it and one driven by that pair, through the same
   trace ([Find k] standing for a find-or-insert of [k]'s value), return
   the same values and end with the same contents, tallies and
   eviction log. *)
let prop_find_or_insert_is_find_then_insert =
  QCheck.Test.make ~name:"find_or_insert = find, then insert on a miss"
    ~count:300 trace_arb (fun ops ->
      let cfg = { State_store.capacity = 4; ttl_ns = 5L } in
      let side () =
        let store = State_store.create cfg in
        let log = ref [] in
        let tbl =
          State_store.table store ~name:"t" ~key:State_store.Conv.int
            ~value:State_store.Conv.int
            ~on_evict:(fun reason k v -> log := (reason, k, v) :: !log)
            ()
        in
        (store, tbl, log)
      in
      let s1, t1, log1 = side () and s2, t2, log2 = side () in
      let agree =
        List.for_all
          (function
            | Insert (k, v) ->
                State_store.insert t1 k v;
                State_store.insert t2 k v;
                true
            | Find k ->
                let v = 1000 + k in
                State_store.find_or_insert t1 k v
                =
                (match State_store.find t2 k with
                | Some stored -> stored
                | None ->
                    State_store.insert t2 k v;
                    v)
            | Advance ns -> State_store.advance s1 ns = State_store.advance s2 ns)
          ops
      in
      let contents t = State_store.fold (fun k v acc -> (k, v) :: acc) t [] in
      agree
      && contents t1 = contents t2
      && State_store.stats t1 = State_store.stats t2
      && !log1 = !log2)

(* --- eviction-callback ordering (pinned, not just modeled) --------- *)

let test_eviction_callback_order () =
  let store = State_store.create { State_store.capacity = 3; ttl_ns = 0L } in
  let order = ref [] in
  let tbl =
    State_store.table store ~name:"t" ~key:State_store.Conv.int
      ~value:State_store.Conv.string
      ~on_evict:(fun reason k _ ->
        check Alcotest.bool "capacity reason" true (reason = State_store.Capacity);
        order := k :: !order)
      ()
  in
  List.iter (fun k -> State_store.insert tbl k "v") [ 1; 2; 3 ];
  (* Touch 1 so 2 becomes the LRU victim. *)
  ignore (State_store.find tbl 1);
  List.iter (fun k -> State_store.insert tbl k "v") [ 4; 5 ];
  check Alcotest.(list int) "LRU victims in age order" [ 2; 3 ] (List.rev !order);
  check Alcotest.int "bound holds" 3 (State_store.length tbl);
  check Alcotest.int "evictions counted" 2
    (State_store.stats tbl).State_store.evictions

let test_ttl_expiry () =
  let store = State_store.create { State_store.capacity = 8; ttl_ns = 10L } in
  let expired = ref [] in
  let tbl =
    State_store.table store ~name:"t" ~key:State_store.Conv.int
      ~value:State_store.Conv.int
      ~on_evict:(fun reason k _ ->
        if reason = State_store.Expired then expired := k :: !expired)
      ()
  in
  State_store.insert tbl 1 10;
  ignore (State_store.advance store 6L);
  State_store.insert tbl 2 20;
  (* 1 is 6ns old, 2 is fresh; +5 pushes only 1 past the 10ns TTL. *)
  check Alcotest.int "one expired on the sweep" 1 (State_store.advance store 5L);
  check Alcotest.(list int) "the oldest one" [ 1 ] !expired;
  check Alcotest.(option int) "expired entry misses" None (State_store.find tbl 1);
  check Alcotest.(option int) "fresh entry survives" (Some 20)
    (State_store.find tbl 2);
  check Alcotest.int "expirations counted" 1
    (State_store.stats tbl).State_store.expirations

(* --- migration ----------------------------------------------------- *)

let test_migrate_rehomes_and_preserves_union () =
  let cfg = { State_store.capacity = 64; ttl_ns = 0L } in
  let mk () = State_store.create cfg in
  let shard_hint k = Int64.of_int k in
  let reg store =
    State_store.table store ~name:"t" ~key:State_store.Conv.int
      ~value:State_store.Conv.int ~shard_hint ()
  in
  let a = [| mk (); mk () |] in
  List.iteri
    (fun i k -> State_store.insert (reg a.(k mod 2)) k (100 + i))
    (List.init 20 Fun.id);
  let before = State_store.digest a in
  (* 2 -> 4 -> 1, re-homing by the hint each time. *)
  let b = [| mk (); mk (); mk (); mk () |] in
  State_store.migrate ~from:a ~into:b;
  Array.iteri
    (fun d store ->
      ignore
        (State_store.fold
           (fun k _ () ->
             check Alcotest.int
               (Printf.sprintf "key %d homed by hint" k)
               (k mod 4) d)
           (reg store) ()))
    b;
  check Alcotest.bool "2 -> 4 digest preserved" true
    (State_store.digest b = before);
  let c = [| mk () |] in
  State_store.migrate ~from:b ~into:c;
  check Alcotest.bool "4 -> 1 digest preserved" true
    (State_store.digest c = before);
  check Alcotest.int "all entries in the single store" 20
    (State_store.length (reg c.(0)))

(* ------------------------------------------------------------------ *)
(* Runtime level: a single-pipelet LB deployment (classifier -> lb ->
   router), where steady state neither punts nor recirculates — the
   flow-cache/state-store interaction is fully visible. *)

let lb_runtime ?engine () =
  let rules =
    [ { Nflib.Classifier.dst_prefix = pfx "10.0.1.0/24"; proto = None; path_id = 10; tenant = 1 } ]
  in
  let registry =
    ("classifier", Nflib.Classifier.create rules)
    :: List.remove_assoc "classifier" (Nflib.Catalog.registry ())
  in
  let chains =
    [
      Chain.make ~path_id:10 ~name:"lb_only"
        ~nfs:[ "classifier"; "lb"; "router" ]
        ~weight:1.0 ~exit_port:1 ();
    ]
  in
  let compiled =
    Result.get_ok
      (Compiler.compile
         (Compiler.default_input ~registry ~chains ~strategy:Placement.Greedy ()))
  in
  let rt = Runtime.create ?engine compiled in
  Nflib.Catalog.attach_handlers rt compiled;
  rt

let engine ?(domains = 1) ?(cache = false) ~capacity ?(ttl_ns = 0L) () =
  {
    Runtime.Engine.default with
    Runtime.Engine.domains;
    cache =
      (if cache then Runtime.Engine.Emc { capacity = 256 }
       else Runtime.Engine.Off);
    state = Runtime.Engine.Bounded { capacity; ttl_ns };
  }

let tcp ~src ~dst ~src_port ~dst_port =
  Netpkt.Pkt.encode
    (Netpkt.Pkt.tcp_flow
       ~src_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:01")
       ~dst_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:02")
       {
         Netpkt.Flow.src;
         dst;
         proto = Netpkt.Ipv4.proto_tcp;
         src_port;
         dst_port;
       })

let red ~src_octet ~src_port =
  ( 0,
    tcp
      ~src:(Netpkt.Ip4.of_octets 203 0 113 src_octet)
      ~dst:(ip "10.0.1.10") ~src_port ~dst_port:80 )

let signature_of = function
  | Error e -> "error:" ^ e
  | Ok (o : Runtime.outcome) -> (
      match o.Runtime.verdict with
      | Asic.Chip.Emitted { port; frame } ->
          Printf.sprintf "emitted:%d:%s" port
            (Digest.to_hex (Digest.bytes frame))
      | Asic.Chip.Dropped -> "dropped"
      | Asic.Chip.To_cpu b -> "to_cpu:" ^ Digest.to_hex (Digest.bytes b))

let send rt (in_port, frame) = Runtime.process rt ~in_port frame

let lb_workload ~flows ~per_flow =
  List.concat
    (List.init flows (fun f ->
         List.init per_flow (fun _ ->
             red ~src_octet:(1 + (f mod 200)) ~src_port:(2000 + f))))

(* Live re-shard 2 -> 4 -> 1 under a Bounded knob, driven by each
   batch's [~domains]: every transition migrates the session ledger by
   the canonical 5-tuple hint, and the final union digest equals a
   cold-built single-store runtime that processed the same traffic —
   with the flow cache on throughout. *)
let test_live_reshard_digest_equals_cold () =
  let mk domains =
    lb_runtime ~engine:(engine ~domains ~cache:true ~capacity:4096 ()) ()
  in
  let w1 = lb_workload ~flows:13 ~per_flow:2 in
  let w2 = lb_workload ~flows:29 ~per_flow:1 in
  let w3 = lb_workload ~flows:7 ~per_flow:3 in
  let live = mk 2 in
  ignore (Runtime.process_batch_parallel live w1);
  check Alcotest.int "two shard stores" 2
    (Array.length (Runtime.state_stores live));
  (* An explicit [~domains:1] re-shards too: w1's flows meet their own
     sessions in one store instead of being recorded a second time. *)
  ignore (Runtime.process_batch_parallel ~domains:1 live w1);
  let cold1 = mk 1 in
  ignore (Runtime.process_batch_parallel cold1 w1);
  check Alcotest.bool "~domains:1 digest = cold-built digest" true
    (State_store.digest (Runtime.state_stores live)
    = State_store.digest (Runtime.state_stores cold1));
  ignore (Runtime.process_batch_parallel ~domains:4 live w2);
  check Alcotest.int "migrated to four" 4
    (Array.length (Runtime.state_stores live));
  ignore (Runtime.process_batch_parallel ~domains:1 live w3);
  check Alcotest.int "migrated to one" 1
    (Array.length (Runtime.state_stores live));
  let cold = mk 1 in
  ignore (Runtime.process_batch_parallel cold (w1 @ w2 @ w3));
  check Alcotest.bool "live re-sharded digest = cold-built digest" true
    (State_store.digest (Runtime.state_stores live)
    = State_store.digest (Runtime.state_stores cold));
  (* And the ledger saw every distinct flow exactly once. *)
  match Runtime.state_store cold with
  | None -> Alcotest.fail "state store missing"
  | Some store ->
      let tbl =
        State_store.table store ~name:Nflib.Lb.state_table_name
          ~key:State_store.Conv.five_tuple ~value:State_store.Conv.ip4 ()
      in
      check Alcotest.int "29 distinct flows" 29 (State_store.length tbl)

(* The acceptance gate: evicting a flow's state invalidates its cached
   whole-chain verdict. With capacity 2, flow A's session is the LRU
   victim when C arrives; A's next packet must re-punt (the chip entry
   is gone), be re-assigned the same backend, and produce the same
   bytes — and the cache must have revalidated, not replayed. *)
let test_eviction_invalidates_cached_verdict () =
  let rt = lb_runtime ~engine:(engine ~cache:true ~capacity:2 ()) () in
  let a = red ~src_octet:9 ~src_port:7000 in
  let b = red ~src_octet:10 ~src_port:7100 in
  let c = red ~src_octet:11 ~src_port:7200 in
  (match send rt a with
  | Error e -> Alcotest.fail e
  | Ok o ->
      check Alcotest.int "A's first packet punts" 1
        o.Runtime.counters.Runtime.Counters.cpu_round_trips);
  let sig_a = signature_of (send rt a) in
  (* A's verdict is now memoized. *)
  ignore (send rt a);
  let hits = (Flow_cache.stats (Option.get (Runtime.flow_cache rt))).Flow_cache.hits in
  check Alcotest.bool "A served from cache" true (hits >= 1);
  (* B then C: C's ledger insert evicts A (LRU), deleting A's chip
     entry through the typed-op layer. *)
  ignore (send rt b);
  ignore (send rt c);
  (match Runtime.state_store rt with
  | None -> Alcotest.fail "state store missing"
  | Some store ->
      let occ =
        List.fold_left
          (fun acc (_, occ, _) -> acc + occ)
          0 (State_store.per_table store)
      in
      check Alcotest.int "ledger bounded at 2" 2 occ);
  match send rt a with
  | Error e -> Alcotest.fail e
  | Ok o ->
      check Alcotest.int "evicted flow re-punts (not served stale)" 1
        o.Runtime.counters.Runtime.Counters.cpu_round_trips;
      check Alcotest.string "same backend, byte-identical output" sig_a
        (signature_of (Ok o))

(* TTL aging through the runtime: a store's logical clock moves only
   through [Runtime.advance_state_time]. A flow idle past the TTL loses
   its LB session and the session's chip entry; its next packet must
   re-punt rather than replay the cached verdict, and leave with the
   same backend and bytes. *)
let test_runtime_ttl () =
  let rt =
    lb_runtime ~engine:(engine ~cache:true ~capacity:64 ~ttl_ns:100L ()) ()
  in
  let a = red ~src_octet:9 ~src_port:7000 in
  let punts = function
    | Error e -> Alcotest.fail e
    | Ok (o : Runtime.outcome) ->
        o.Runtime.counters.Runtime.Counters.cpu_round_trips
  in
  check Alcotest.int "a new flow punts" 1 (punts (send rt a));
  let second = send rt a in
  check Alcotest.int "its second packet does not" 0 (punts second);
  check Alcotest.int "its verdict is cached" 1
    (Flow_cache.length (Option.get (Runtime.flow_cache rt)));
  check Alcotest.int "nothing expires within the TTL" 0
    (Runtime.advance_state_time rt 50L);
  check Alcotest.int "the session expires past it" 1
    (Runtime.advance_state_time rt 100L);
  (match
     Asic.Chip.find_table (Runtime.chip rt)
       (Compose.nf_table_name ~nf:Nflib.Lb.name Nflib.Lb.table_name)
   with
  | Some t -> check Alcotest.int "the chip's session table is empty" 0 (P4ir.Table.size t)
  | None -> Alcotest.fail "no LB session table");
  let next = send rt a in
  check Alcotest.int "the flow punts again" 1 (punts next);
  check Alcotest.string "same backend, byte-identical output"
    (signature_of second) (signature_of next)

(* Store counters surface as registry gauges in the stats snapshot. *)
let test_state_gauges_in_snapshot () =
  let rt =
    lb_runtime
      ~engine:
        {
          (engine ~capacity:1024 ()) with
          Runtime.Engine.telemetry = Telemetry.Level.Counters;
        }
      ()
  in
  ignore (Runtime.process_batch rt (lb_workload ~flows:5 ~per_flow:2));
  match Runtime.snapshot rt with
  | None -> Alcotest.fail "telemetry off"
  | Some snap ->
      let count name =
        match List.assoc_opt name snap with
        | Some (Telemetry.Registry.Vcount n) -> n
        | _ -> Alcotest.fail ("missing gauge " ^ name)
      in
      check Alcotest.int "state.stores" 1 (count "state.stores");
      check Alcotest.int "state.capacity" 1024 (count "state.capacity");
      check Alcotest.int "lb.sessions occupancy" 5
        (count "state.lb.sessions.occupancy");
      check Alcotest.int "lb.sessions inserts" 5
        (count "state.lb.sessions.inserts")

(* Bounded-off is byte-identical to an engine without the knob. *)
let test_state_off_identical () =
  let w = lb_workload ~flows:11 ~per_flow:3 in
  let off = Runtime.process_batch (lb_runtime ()) w in
  let on =
    Runtime.process_batch (lb_runtime ~engine:(engine ~capacity:4096 ()) ()) w
  in
  check Alcotest.bool "digest and totals identical" true
    (off.Runtime.digest = on.Runtime.digest
    && off.Runtime.emitted = on.Runtime.emitted
    && off.Runtime.to_cpu = on.Runtime.to_cpu
    && off.Runtime.errors = on.Runtime.errors)

(* classifier -> lb -> nat -> router with the catalog's handlers, whose
   LB sessions (by 5-tuple) and NAT bindings (by source address) both
   live on a bounded store of [capacity]. *)
let lb_nat_runtime ~capacity =
  let registry =
    ( "classifier",
      Nflib.Classifier.create
        [ { Nflib.Classifier.dst_prefix = pfx "10.0.1.0/24"; proto = None; path_id = 10; tenant = 1 } ] )
    :: (Nflib.Nat.name, Nflib.Nat.create_dynamic ~max_size:(max 8192 capacity))
    :: List.filter
         (fun (n, _) -> n <> "classifier" && n <> Nflib.Nat.name)
         (Nflib.Catalog.registry ())
  in
  let chains =
    [
      Chain.make ~path_id:10 ~name:"stateful"
        ~nfs:[ "classifier"; "lb"; "nat"; "router" ]
        ~weight:1.0 ~exit_port:1 ();
    ]
  in
  let compiled =
    Result.get_ok
      (Compiler.compile
         (Compiler.default_input ~registry ~chains ~strategy:Placement.Greedy ()))
  in
  let rt = Runtime.create ~engine:(engine ~capacity ()) compiled in
  Nflib.Catalog.attach_handlers rt compiled;
  rt

(* Flow [f] of the tenant-1 VIP: f's 22 low bits spread over the last
   three source octets, so every flow is a distinct source. *)
let lb_nat_frame f =
  ( 0,
    tcp
      ~src:
        (Netpkt.Ip4.of_octets 10
           (64 + ((f lsr 16) land 0x3f))
           ((f lsr 8) land 0xff) (f land 0xff))
      ~dst:Nflib.Catalog.tenant1_vip ~src_port:(40000 + (f mod 16384))
      ~dst_port:80 )

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* The store at scale: 20,000 distinct-source flows to the tenant-1 VIP
   through the lb-nat deployment at capacity 4,096, in batches of 2,048.
   Each ledger grows one entry per flow up to the bound, then evicts
   its LRU entry per new flow, and each eviction deletes its chip
   entry: both ledgers and both chip tables end holding exactly
   [capacity] entries. Once the store is well saturated (3 x capacity
   flows seen) the live heap must stay flat: at the end it may exceed
   the checkpoint by max(10%, 1M words) at most. *)
let test_scale () =
  let capacity = 4096 and flows = 20_000 and batch = 2_048 in
  let rt = lb_nat_runtime ~capacity in
  let checkpoint = ref None and errors = ref 0 and seen = ref 0 in
  while !seen < flows do
    let n = min batch (flows - !seen) in
    let stats =
      Runtime.process_batch rt (List.init n (fun i -> lb_nat_frame (!seen + i)))
    in
    errors := !errors + stats.Runtime.errors;
    seen := !seen + n;
    if !checkpoint = None && !seen >= 3 * capacity then
      checkpoint := Some (live_words (), !seen)
  done;
  check Alcotest.int "no packet errors" 0 !errors;
  let ledgers = State_store.totals (Runtime.state_stores rt) in
  let ledger name =
    match List.find_opt (fun (n, _, _) -> n = name) ledgers with
    | Some (_, occupancy, _) -> occupancy
    | None -> Alcotest.fail ("no ledger " ^ name)
  in
  check Alcotest.bool "every ledger within capacity" true
    (List.for_all (fun (_, occupancy, _) -> occupancy <= capacity) ledgers);
  let chip nf tbl =
    match Asic.Chip.find_table (Runtime.chip rt) (Compose.nf_table_name ~nf tbl) with
    | Some t -> P4ir.Table.size t
    | None -> Alcotest.fail ("no chip table for " ^ nf)
  in
  check Alcotest.int "LB session ledger" capacity (ledger Nflib.Lb.state_table_name);
  check Alcotest.int "NAT binding ledger" capacity (ledger Nflib.Nat.state_table_name);
  check Alcotest.int "LB session table" capacity (chip Nflib.Lb.name Nflib.Lb.table_name);
  check Alcotest.int "NAT binding table" capacity (chip Nflib.Nat.name Nflib.Nat.table_name);
  let saturated, at = Option.get !checkpoint and final = live_words () in
  if final > saturated + max (saturated / 10) 1_000_000 then
    Alcotest.failf "live heap grew from %d words at %d flows to %d at %d" saturated at
      final flows

(* What a stored connection holds in the heap: the lb-nat deployment at
   capacity 2,048, filled with three times as many new connections,
   each a new LB session and a new NAT binding. The live words beyond
   the runtime's own before traffic, per stored connection — its LB
   session in the chip table and the ledger, and its NAT binding in
   both — measured 125.0 with OCaml 5.1.1. Chip entries kept beside a
   map by seq, index buckets behind a [ref], and ledger entries with a
   boxed stamp, a boxed shard hash and [Some] links took 152.0. The
   budget is the measurement plus 10%. *)
let words_per_connection_budget = 1.1 *. 125.0

let test_words_per_connection () =
  let capacity = 2048 in
  let rt = lb_nat_runtime ~capacity in
  let before = live_words () and seen = ref 0 in
  while !seen < 3 * capacity do
    ignore (Runtime.process_batch rt (List.init 512 (fun i -> lb_nat_frame (!seen + i))));
    seen := !seen + 512
  done;
  let after = live_words () in
  check Alcotest.int "a full LB ledger" capacity
    (match
       List.find_opt
         (fun (n, _, _) -> n = Nflib.Lb.state_table_name)
         (State_store.totals (Runtime.state_stores rt))
     with
    | Some (_, occupancy, _) -> occupancy
    | None -> 0);
  let per = float_of_int (after - before) /. float_of_int capacity in
  if per > words_per_connection_budget then
    Alcotest.failf "%.1f live words per stored connection (budget %.1f)" per
      words_per_connection_budget

let () =
  Alcotest.run "state_store"
    [
      ( "differential",
        [
          qtest prop_bounded_equals_reference;
          qtest prop_large_capacity_equals_reference;
          qtest prop_find_or_insert_is_find_then_insert;
        ] );
      ( "policy",
        [
          Alcotest.test_case "eviction callbacks in LRU order" `Quick
            test_eviction_callback_order;
          Alcotest.test_case "ttl expiry" `Quick test_ttl_expiry;
        ] );
      ( "migration",
        [
          Alcotest.test_case "re-home 2 -> 4 -> 1" `Quick
            test_migrate_rehomes_and_preserves_union;
          Alcotest.test_case "live re-shard digest = cold" `Quick
            test_live_reshard_digest_equals_cold;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "eviction invalidates cached verdict" `Quick
            test_eviction_invalidates_cached_verdict;
          Alcotest.test_case "runtime ttl" `Quick test_runtime_ttl;
          Alcotest.test_case "state gauges in snapshot" `Quick
            test_state_gauges_in_snapshot;
          Alcotest.test_case "state off identical" `Quick
            test_state_off_identical;
          Alcotest.test_case "scale" `Quick test_scale;
          Alcotest.test_case "words per stored connection" `Quick
            test_words_per_connection;
        ] );
    ]
