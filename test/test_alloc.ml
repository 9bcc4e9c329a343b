(* Allocation fences for the shard-replica path, the per-packet layers,
   the uncached batch and the flow cache's entries: each budget is a
   measured figure with headroom, counted on one domain, so a change
   that brings back
   per-entry action compilation, an install-replaying table copy, a
   capacity-sized cache bucket array, boxed field values, a field boxed
   on its way to or from the wire, a deparse and re-parse at every pipe
   boundary, an SFC header read by name on a CPU round trip or a
   per-entry register trace in the cache fails here before it shows up
   as benchmark time. *)

open Dejavu_core


(* Words allocated by [f ()] on this domain: minor words plus those
   allocated directly in the major heap (large arrays skip the minor
   heap; promotions are already in the minor count). The major count
   comes from [Gc.counters], as [Runtime.gc_words] reads it: it takes
   in the domain's allocations since its last major slice, where
   [Gc.quick_stat]'s moves only at a collection. *)
let words f =
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let m0 = direct () and w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () and m1 = direct () in
  (r, w1 -. w0 +. (m1 -. m0))

(* Minor words alone: this domain's own counter, which a joined
   domain's late runtime termination cannot move. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

let fig2_chip () = (Fixtures.fig2_compiled ()).Compiler.chip

let under what ~budget w =
  if w > budget then
    Alcotest.failf "%s allocated %.0f words (budget %.0f)" what w budget

(* Measured at 8,549 words with OCaml 5.1.1: the four controls
   compiled again over the replica's tables (their closures and each
   table's compiled actions), fresh table handles over the shared
   bodies, register cells and port modes. Rendering every gateway's
   condition at compile time, not at its first traced evaluation, took
   17,318; copying every table's entry records and index took 132,650;
   replaying every install with a per-entry action compile took
   435,588. *)
let replicate_budget = 1.25 *. 8_549.

let test_replicate () =
  let chip = fig2_chip () in
  (* Warm once so lazily built state is not charged to the fence. *)
  ignore (Asic.Chip.replicate chip);
  let _, w = words (fun () -> Asic.Chip.replicate chip) in
  under "Chip.replicate" ~budget:replicate_budget w

(* Measured at 341 words with OCaml 5.1.1: 16 slots, the key table and
   the plan memo (247 before the slots and the memo). A bucket array
   sized for the capacity was 65,536 words on its own, as slot arrays
   sized for it would be. *)
let test_cache_create () =
  let chip = fig2_chip () in
  let _, w = words (fun () -> Flow_cache.create ~capacity:65536 chip) in
  under "Flow_cache.create ~capacity:65536" ~budget:1000. w

(* One more FIB route on [chip] points at the table's compiled [route]
   action: the entry shares the closure the other routes run, and the
   install allocates fewer words than compiling that action once would
   — for the Fig. 2 layout (standard metadata, then the generic
   parser's declarations), as the bound table holds it. *)
let fib_add ?(minor_only = false) what chip =
  let words f = if minor_only then minor_words f else words f in
  let fib = Option.get (Asic.Chip.find_table chip Nflib.Catalog.routes_table_name) in
  let route = Option.get (P4ir.Table.find_action fib "route") in
  let parser = (Asic.Pipelet.program (List.hd (Asic.Chip.pipelets chip))).P4ir.Program.parser in
  let layout = Asic.Stdmeta.layout parser.P4ir.Parser_graph.decls in
  let _, compile_w = words (fun () -> P4ir.Action.compile ~layout route) in
  let e = Fixtures.fib_entry ~prefix_len:24 ((172 lsl 24) lor (31 lsl 16)) in
  let r, w = words (fun () -> P4ir.Table.add_entry fib e) in
  ignore (Result.get_ok r);
  under what ~budget:compile_w w;
  (fib, e)

(* Counted in minor words alone: this route is the FIB's 513th /24, so
   its install grows the /24 group's index bucket array to 512 buckets,
   which OCaml allocates straight into the major heap (1,103 words with
   the major count included). The budget, one compile of [route],
   allocates only minor words, so the fence compares like with like. *)
let test_add_entry () =
  let fib, e = fib_add ~minor_only:true "FIB add_entry" (fig2_chip ()) in
  let run e = Option.get (P4ir.Table.compiled_action fib e) in
  Alcotest.(check bool) "new route shares the compiled action" true
    (run e == run (List.hd Fixtures.fib_entries))

(* --- The fast path's per-layer fences: a Fig. 2 frame through the
   ingress pipelet its port feeds. Field values are immediate ints in
   the PHV's cells, so what a pass allocates is the PHV copy and the
   payload, not the headers' values. --- *)

let fig2_frame =
  Netpkt.Pkt.encode
    (Netpkt.Pkt.tcp_flow
       ~src_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:01")
       ~dst_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:02")
       {
         Netpkt.Flow.src = Netpkt.Ip4.of_string_exn "203.0.113.7";
         dst = Netpkt.Ip4.of_string_exn "10.0.2.33";
         proto = Netpkt.Ipv4.proto_tcp;
         src_port = 40000;
         dst_port = 80;
       })

let ingress_pipelet chip =
  let spec = Asic.Chip.spec chip in
  Asic.Chip.pipelet chip
    { Asic.Pipelet.pipeline = Asic.Spec.port_pipeline spec 0; kind = Asic.Pipelet.Ingress }

let parse_exn pl frame =
  match Asic.Pipelet.parse pl frame with
  | Ok r -> r
  | Error e -> Alcotest.fail e

(* Measured at 83 words with OCaml 5.1.1: the template copy (one cell
   per field and validity bit), the payload slice and the result; the
   boxed-value parser took 533. *)
let parse_budget = 1.25 *. 83.

let test_parse () =
  let pl = ingress_pipelet (fig2_chip ()) in
  ignore (parse_exn pl fig2_frame);
  let _, w = words (fun () -> parse_exn pl fig2_frame) in
  under "Pipelet.parse" ~budget:parse_budget w

(* One ingress control pass — about ten table applies, gateways and
   inline actions on the int path. Measured at 6 words with OCaml 5.1.1:
   the [Some] of each of the three index-bucket hits, and nothing else —
   no boxed value, no trace event when no trace is collected. The
   boxed-value pass took 1,157. *)
let process_budget = 1.25 *. 6.

let test_process () =
  let pl = ingress_pipelet (fig2_chip ()) in
  let phv, _ = parse_exn pl fig2_frame in
  Asic.Pipelet.process pl (P4ir.Phv.copy phv);
  let phv = P4ir.Phv.copy phv in
  let (), w = words (fun () -> Asic.Pipelet.process pl phv) in
  under "Pipelet.process" ~budget:process_budget w

(* --- The wire codec's three Fast-mode users beside the parse: the
   ingress deparse, the TM handover and the SFC header's decode. Each
   field is a load, a shift and a mask on an unboxed [int64], so a
   header costs no word per field. --- *)

let egress_pipelet chip =
  let spec = Asic.Chip.spec chip in
  Asic.Chip.pipelet chip
    { Asic.Pipelet.pipeline = Asic.Spec.port_pipeline spec 0; kind = Asic.Pipelet.Egress }

(* A Fig. 2 frame after its ingress pass: Ethernet, the SFC header
   and VLAN tag the classifier pushed, IPv4 and TCP. *)
let after_ingress chip =
  let pl = ingress_pipelet chip in
  let phv, payload = parse_exn pl fig2_frame in
  Asic.Pipelet.process pl phv;
  (pl, phv, payload)

(* Measured at 11 words with OCaml 5.1.1: the 78-byte frame, and
   nothing per header or field. *)
let deparse_budget = 1.25 *. 11.

let test_deparse () =
  let pl, phv, payload = after_ingress (fig2_chip ()) in
  ignore (Asic.Pipelet.deparse_fast pl phv ~payload);
  let out, w = words (fun () -> Asic.Pipelet.deparse_fast pl phv ~payload) in
  Alcotest.(check int) "the frame: 14 + 20 + 4 + 20 + 20 bytes" 78 (Bytes.length out);
  under "Pipelet.deparse_fast" ~budget:deparse_budget w

(* Measured at 0 words with OCaml 5.1.1: the PHV is handed over in
   place, and the IPv4 checksum is refreshed by encoding the header into
   the pipelet's scratch buffer. *)
let adopt_budget = 1.25 *. 0.

let test_adopt () =
  let chip = fig2_chip () in
  let _, phv, _ = after_ingress chip in
  let eg = egress_pipelet chip in
  Alcotest.(check bool) "the egress parser replays the frame" true
    (Asic.Pipelet.adopt eg (P4ir.Phv.copy phv));
  let ok, w = words (fun () -> Asic.Pipelet.adopt eg phv) in
  Alcotest.(check bool) "adopted" true ok;
  under "Pipelet.adopt" ~budget:adopt_budget w

(* Measured at 45 words with OCaml 5.1.1: the record, its context
   array and slots, the [Ok] and the getter's closure; none per field. *)
let sfc_decode_budget = 1.25 *. 45.

let test_sfc_decode () =
  let b = Sfc_header.encode { Sfc_header.default with Sfc_header.in_port = 5 } in
  ignore (Sfc_header.decode b ~off:0);
  let r, w = words (fun () -> Sfc_header.decode b ~off:0) in
  Alcotest.(check bool) "decodes" true (Result.is_ok r);
  under "Sfc_header.decode" ~budget:sfc_decode_budget w

(* One green walk through the chip: ingress, the traffic manager and
   egress. Measured at 139 words with OCaml 5.1.1: the parse at
   ingress, the emitted frame and the walk's state and result; the PHV
   crosses the traffic manager in place. Listing the pipelets visited
   on every walk, at every telemetry level, took 153; deparsing at
   ingress and parsing again at egress took 242. *)
let inject_budget = 1.25 *. 139.

let green_frame =
  Netpkt.Pkt.encode
    (Netpkt.Pkt.tcp_flow
       ~src_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:01")
       ~dst_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:02")
       {
         Netpkt.Flow.src = Netpkt.Ip4.of_string_exn "203.0.113.7";
         dst = Netpkt.Ip4.of_string_exn "10.0.3.17";
         proto = Netpkt.Ipv4.proto_tcp;
         src_port = 40000;
         dst_port = 443;
       })

let test_inject () =
  let chip = fig2_chip () in
  let inject () =
    match Asic.Chip.inject chip ~in_port:0 green_frame with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  (* The pass count, off a [Journeys] walk's hops (which also warms
     the chip); the measured walk, at [Off], records none. *)
  Asic.Chip.set_telemetry chip Telemetry.Level.Journeys;
  let r = inject () in
  Alcotest.(check int) "ingress, TM, egress" 2 (List.length r.Asic.Chip.hops);
  Asic.Chip.set_telemetry chip Telemetry.Level.Off;
  let _, w = words inject in
  under "Chip.inject" ~budget:inject_budget w

(* One CPU round trip: the first packet of a new red flow on the Fig. 2
   runtime punts to the LB handler, which installs the session and
   reinjects. Measured at 682 words with OCaml 5.1.1: the two chip
   walks, the handler's decode and install, and the SFC header read
   once, by position. Reading it by name three times per round trip,
   with an encode to clear the CPU mark, took 3,249. A packet of an
   installed flow takes 184 either way. The handler now reads the
   5-tuple in place instead of decoding the frame: 509 words. *)
let round_trip_budget = 1.25 *. 682.

let red_frame ~src_port =
  Netpkt.Pkt.encode
    (Netpkt.Pkt.tcp_flow
       ~src_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:01")
       ~dst_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:02")
       {
         Netpkt.Flow.src = Netpkt.Ip4.of_string_exn "203.0.113.50";
         dst = Nflib.Catalog.tenant1_vip;
         proto = Netpkt.Ipv4.proto_tcp;
         src_port;
         dst_port = 80;
       })

let test_round_trip () =
  let compiled =
    Result.get_ok (Compiler.compile (Nflib.Catalog.edge_cloud_input ()))
  in
  let rt = Runtime.create compiled in
  Nflib.Catalog.attach_handlers rt compiled;
  let process frame =
    match Runtime.process rt ~in_port:0 frame with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  (* Warm with another new flow, so what is built once is not charged. *)
  ignore (process (red_frame ~src_port:7000));
  let frame = red_frame ~src_port:7001 in
  let o, w = words (fun () -> process frame) in
  Alcotest.(check int) "one CPU round trip" 1
    o.Runtime.counters.Runtime.Counters.cpu_round_trips;
  under "Runtime.process of a new flow" ~budget:round_trip_budget w

(* A parallel batch's replicas share the primary's table bodies and
   give them up at the join ({!Asic.Chip.release}), so the primary's
   first install after the batch writes in place, within the FIB
   add_entry budget. Held by a replica, the 546-route FIB would be
   copied first: 16,418 minor words measured. Counted in this domain's
   minor words alone, where such a copy allocates: the runtime-wide
   counters also take in the batch's joined domain whenever its
   runtime termination completes, which may be after [Dpool.run]
   returns — so this fence runs last. *)
let test_add_after_parallel_batch () =
  let compiled = Fixtures.fig2_compiled () in
  let rt =
    Runtime.create
      ~engine:{ Runtime.Engine.default with Runtime.Engine.domains = 2 }
      compiled
  in
  Nflib.Catalog.attach_handlers rt compiled;
  ignore
    (Runtime.process_batch_parallel rt
       (List.init 8 (fun i ->
            (0, if i mod 2 = 0 then green_frame else red_frame ~src_port:(7100 + i)))));
  ignore
    (fib_add ~minor_only:true "first FIB add_entry after a parallel batch"
       (Runtime.chip rt))

(* --- The flow cache's hit path: the Fig. 2 runtime with a 65,536-entry
   cache warmed by 1,000 green flows, each cached on its first run. --- *)

let green_flow ~src_port =
  Netpkt.Pkt.encode
    (Netpkt.Pkt.tcp_flow
       ~src_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:01")
       ~dst_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:02")
       {
         Netpkt.Flow.src = Netpkt.Ip4.of_string_exn "203.0.113.7";
         dst = Netpkt.Ip4.of_string_exn "10.0.3.17";
         proto = Netpkt.Ipv4.proto_tcp;
         src_port;
         dst_port = 443;
       })

let cached_runtime capacity =
  let compiled =
    Result.get_ok (Compiler.compile (Nflib.Catalog.edge_cloud_input ()))
  in
  let engine =
    { Runtime.Engine.default with Runtime.Engine.cache = Runtime.Engine.Emc { capacity } }
  in
  Runtime.create ~engine compiled

let warm_hits () =
  let rt = cached_runtime 65536 in
  let batch = List.init 1000 (fun i -> (0, green_flow ~src_port:(10_000 + i))) in
  ignore (Runtime.process_batch rt batch);
  ignore (Runtime.process_batch rt batch);
  let c = Option.get (Runtime.flow_cache rt) in
  Alcotest.(check int) "1,000 entries" 1000 (Flow_cache.length c);
  (* An empty minor heap: no collection lands inside a measurement. *)
  Gc.minor ();
  (rt, c, batch)

(* Measured at 25 words with OCaml 5.1.1: the key (9), the output frame
   (8), and the hit record with its verdict and option (8). LRU links
   through freshly boxed options, a [Some] from the table probe and the
   header walk's closures took 37. *)
let cache_hit_budget = 1.25 *. 25.

let test_cache_hit () =
  let _, c, _ = warm_hits () in
  let frame = green_flow ~src_port:10_500 in
  let h, w = words (fun () -> Flow_cache.lookup c ~in_port:0 frame) in
  Alcotest.(check bool) "validated hit" true (Option.is_some h);
  under "Flow_cache.lookup hit" ~budget:cache_hit_budget w

(* Measured at 36.04 words per packet with OCaml 5.1.1: the hit (25)
   plus its outcome (11: the [Ok], the outcome and its counters), and
   nothing per packet for the batch. Three copies of the batch record
   per packet, a 5-byte buffer and boxed [Int64]s for the digest, and a
   closure for the walk a hit never takes took 110.04. *)
let batch_hit_budget = 1.25 *. 36.

let test_batch_of_hits () =
  let rt, c, batch = warm_hits () in
  let hits0 = (Flow_cache.stats c).Flow_cache.hits in
  let _, w = words (fun () -> Runtime.process_batch rt batch) in
  Alcotest.(check int) "every packet hits" 1000
    ((Flow_cache.stats c).Flow_cache.hits - hits0);
  under "Runtime.process_batch of hits, per packet" ~budget:batch_hit_budget
    (w /. 1000.)

(* What a cached flow holds in the heap: the runtime above with a
   4,096-entry cache, filled by 4,096 distinct green flows. The live
   words beyond the runtime's own before traffic, per entry — its key
   (9), output prefix (8), entry with verdict and latency (9),
   hash-table bucket (4), slot (4) and a share of the bucket array —
   measured 34.5 with OCaml 5.1.1. Entries that also kept a register
   read/write trace took 35.5. The budget is the measurement plus
   10%. *)
let cache_entry_budget = 1.1 *. 34.5

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let test_cache_memory () =
  let capacity = 4096 in
  let rt = cached_runtime capacity in
  let before = live_words () in
  ignore
    (Runtime.process_batch rt
       (List.init capacity (fun i -> (0, green_flow ~src_port:(10_000 + i)))));
  let after = live_words () in
  let c = Option.get (Runtime.flow_cache rt) in
  Alcotest.(check int) "every flow cached" capacity (Flow_cache.length c);
  let per = float_of_int (after - before) /. float_of_int capacity in
  if per > cache_entry_budget then
    Alcotest.failf "%.1f live words per cached flow (budget %.1f)" per
      cache_entry_budget

(* --- The uncached fast path per packet: the Fig. 2 runtime with the
   546-prefix FIB, its handlers attached and no cache, over the 200
   packets of the four-class mix. The warm pass absorbs each flow's
   first-packet work (a new LB flow punts and installs its session),
   so the measured pass is the steady-state data plane. --- *)

let fig2_runtime level =
  let compiled = Fixtures.fig2_compiled () in
  let rt =
    Runtime.create
      ~engine:{ Runtime.Engine.default with Runtime.Engine.telemetry = level }
      compiled
  in
  Nflib.Catalog.attach_handlers rt compiled;
  rt

let uncached_packets = 200
let uncached_batch = Fixtures.mixed_workload uncached_packets

let warm rt =
  ignore (Runtime.process_batch rt uncached_batch);
  Gc.full_major ()

(* The measured pass's words per packet. *)
let measured rt =
  let _, w = words (fun () -> Runtime.process_batch rt uncached_batch) in
  w /. float_of_int uncached_packets

(* Measured at 156.2 words per packet with OCaml 5.1.1 at [Off], as
   over the runtime bench's own 200-packet mix where this fence began
   (156.0 over 4,000 packets), since field values are immediate ints
   in the PHV's cells (boxed values took
   ~3,800), the PHV is handed across the traffic manager rather than
   deparsed and re-parsed (317), a walk records its passes only as
   journey hops (listing the pipelets visited on every walk took 228.2),
   and the batch loop keeps its tallies and digest in locals while a
   packet's chip walk builds no closure (three batch records, a digest
   buffer, boxed [Int64]s and the walk's closure per packet took
   214.2). The budget is that measurement plus 20%: more at [Off] means
   allocation came back onto the uninstrumented hot path. *)
let uncached_budget = 187.

(* At [Counters] the runtime accounts its own allocation: the
   [gc.minor_words] counter and one [runtime.alloc_words_per_packet]
   observation per batch must read what the bracket reads. *)
let test_uncached_batch () =
  let rt = fig2_runtime Telemetry.Level.Off in
  warm rt;
  under "Runtime.process_batch uncached at Off, per packet" ~budget:uncached_budget
    (measured rt);
  let rt = fig2_runtime Telemetry.Level.Counters in
  let reg = Observe.registry (Option.get (Runtime.telemetry rt)) in
  let minor = Option.get (Telemetry.Registry.find_counter reg "gc.minor_words") in
  let per_packet =
    Option.get (Telemetry.Registry.find_histogram reg "runtime.alloc_words_per_packet")
  in
  warm rt;
  let minor0 = !minor in
  Telemetry.Histogram.reset per_packet;
  let bracket = measured rt in
  let counted = float_of_int (!minor - minor0) /. float_of_int uncached_packets in
  if Float.abs (counted -. bracket) > 2. then
    Alcotest.failf "gc.minor_words read %.1f words/pkt, the bracket %.1f" counted
      bracket;
  Alcotest.(check (list (pair int int)))
    "the batch's observation is in the bracket's bucket"
    [ (Telemetry.Histogram.bucket_of (int_of_float bracket), 1) ]
    (Telemetry.Histogram.nonzero per_packet)

(* At [Counters] a batch is billed for what its handlers allocate
   straight into the major heap: here an LB handler that allocates a
   1,000-word array per punt, over ten new red flows, must add at least
   10,000 words to [gc.major_words]. The runtime reads the major count
   from [Gc.counters], which takes in the domain's allocations since
   its last major slice; [Gc.quick_stat]'s count moves only at a
   collection, and read 0 for this batch. *)
let test_direct_major_words () =
  let compiled = Fixtures.fig2_compiled () in
  let rt =
    Runtime.create
      ~engine:
        { Runtime.Engine.default with Runtime.Engine.telemetry = Telemetry.Level.Counters }
      compiled
  in
  Runtime.register_nf_id rt Nflib.Lb.name Nflib.Lb.nf_id;
  Runtime.on_to_cpu_state rt Nflib.Lb.name (fun _ _ _ _ ->
      ignore (Sys.opaque_identity (Array.make 1000 0));
      Runtime.Consume);
  let reg = Observe.registry (Option.get (Runtime.telemetry rt)) in
  let major = Option.get (Telemetry.Registry.find_counter reg "gc.major_words") in
  let batch = List.init 10 (fun i -> (0, red_frame ~src_port:(7200 + i))) in
  Gc.full_major ();
  let major0 = !major in
  let stats = Runtime.process_batch rt batch in
  Alcotest.(check int) "every flow punted and was consumed" 10 stats.Runtime.to_cpu;
  if !major - major0 < 10 * 1000 then
    Alcotest.failf "gc.major_words rose by %d over ten 1,000-word arrays"
      (!major - major0)

(* The CRC-32 kernel reads eight bytes per step through an unboxed
   [int64] and allocates nothing, as the bytewise kernel before it. *)
let test_crc32 () =
  let b = Bytes.init 1518 (fun i -> Char.chr (i land 0xff)) in
  ignore (Netpkt.Bytes_util.crc32_int b ~off:0 ~len:1518);
  let _, w = words (fun () -> Netpkt.Bytes_util.crc32_int b ~off:0 ~len:1518) in
  under "Bytes_util.crc32_int" ~budget:0. w

(* A compiled expression over int fields allocates nothing: no boxed
   value per node, no option, no closure per evaluation. *)
let test_expr () =
  let d = P4ir.Hdr.decl "h" [ ("a", 48); ("b", 16); ("c", 32) ] in
  let lay = P4ir.Phv.layout_of [ d ] in
  let phv = P4ir.Phv.of_layout lay in
  P4ir.Phv.set_valid phv "h";
  let f name = P4ir.Expr.Field (P4ir.Fieldref.v "h" name) in
  let e =
    P4ir.Expr.(
      Bin
        ( LAnd,
          Bin (Lt, Bin (Add, f "a", Bin (Shl, f "b", const ~width:8 3)), f "c"),
          Hash (Crc32, 32, [ f "a"; f "b"; Param "p" ]) ))
  in
  let c = P4ir.Expr.compile ~params:[ ("p", 32) ] lay e in
  let args = [| 7 |] in
  ignore (c.P4ir.Expr.run phv args);
  let _, w = words (fun () -> c.P4ir.Expr.run phv args) in
  under "compiled Expr" ~budget:0. w

let () =
  Alcotest.run "alloc"
    [
      ( "fences",
        [
          Alcotest.test_case "Chip.replicate" `Quick test_replicate;
          Alcotest.test_case "Flow_cache.create" `Quick test_cache_create;
          Alcotest.test_case "FIB add_entry" `Quick test_add_entry;
          Alcotest.test_case "Pipelet.parse" `Quick test_parse;
          Alcotest.test_case "Pipelet.process" `Quick test_process;
          Alcotest.test_case "Pipelet.deparse_fast" `Quick test_deparse;
          Alcotest.test_case "Pipelet.adopt" `Quick test_adopt;
          Alcotest.test_case "Sfc_header.decode" `Quick test_sfc_decode;
          Alcotest.test_case "Chip.inject" `Quick test_inject;
          Alcotest.test_case "compiled Expr" `Quick test_expr;
          Alcotest.test_case "CPU round trip" `Quick test_round_trip;
          Alcotest.test_case "Flow_cache.lookup hit" `Quick test_cache_hit;
          Alcotest.test_case "batch of cache hits" `Quick test_batch_of_hits;
          Alcotest.test_case "words per cached flow" `Quick test_cache_memory;
          Alcotest.test_case "uncached batch" `Quick test_uncached_batch;
          Alcotest.test_case "direct major words counted" `Quick
            test_direct_major_words;
          Alcotest.test_case "Bytes_util.crc32_int" `Quick test_crc32;
          Alcotest.test_case "FIB add_entry after a parallel batch" `Quick
            test_add_after_parallel_batch;
        ] );
    ]
