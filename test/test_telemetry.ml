(* Telemetry subsystem tests: histogram bucket edges, flight-recorder
   ring wraparound, registry snapshots/deltas, the batch error log, the
   observation-only property (Counters/Journeys instrumentation never
   changes packet outputs or traces), and journey capture. *)

open Dejavu_core

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- histogram ------------------------------------------------------ *)

let test_histogram_bucket_edges () =
  let b = Telemetry.Histogram.bucket_of in
  check Alcotest.int "0 -> bucket 0" 0 (b 0);
  check Alcotest.int "negative -> bucket 0" 0 (b (-5));
  check Alcotest.int "1 -> bucket 1" 1 (b 1);
  check Alcotest.int "2 -> bucket 2" 2 (b 2);
  check Alcotest.int "3 -> bucket 2" 2 (b 3);
  check Alcotest.int "4 -> bucket 3" 3 (b 4);
  check Alcotest.int "7 -> bucket 3" 3 (b 7);
  check Alcotest.int "8 -> bucket 4" 4 (b 8);
  check Alcotest.int "1023 -> bucket 10" 10 (b 1023);
  check Alcotest.int "1024 -> bucket 11" 11 (b 1024);
  (* 63-bit OCaml ints top out at 62 significant bits, safely inside
     the 64-bucket range. *)
  check Alcotest.int "max_int lands in bucket 62" 62 (b max_int);
  check Alcotest.bool "max_int within range" true
    (b max_int < Telemetry.Histogram.n_buckets);
  (* Each bucket's bounds must contain exactly the values that map to
     it: check both edges of every finite bucket. *)
  for k = 1 to 20 do
    let lo, hi = Telemetry.Histogram.bounds k in
    check Alcotest.int (Printf.sprintf "lo edge of bucket %d" k) k (b lo);
    check Alcotest.int (Printf.sprintf "hi edge of bucket %d" k) k (b hi)
  done

let test_histogram_observe () =
  let h = Telemetry.Histogram.create () in
  check Alcotest.int "empty count" 0 (Telemetry.Histogram.count h);
  check (Alcotest.float 0.0) "empty mean" 0.0 (Telemetry.Histogram.mean h);
  check Alcotest.int "empty quantile" 0 (Telemetry.Histogram.quantile h 0.5);
  List.iter (Telemetry.Histogram.observe h) [ 1; 2; 3; 100; 1000 ];
  check Alcotest.int "count" 5 (Telemetry.Histogram.count h);
  check Alcotest.int "sum" 1106 (Telemetry.Histogram.sum h);
  check (Alcotest.float 0.01) "mean" 221.2 (Telemetry.Histogram.mean h);
  (* p50 of 5 samples is the 3rd: value 3 lives in bucket 2 = [2,3]. *)
  check Alcotest.int "p50 upper bound" 3 (Telemetry.Histogram.quantile h 0.5);
  check Alcotest.int "p100 upper bound" 1023
    (Telemetry.Histogram.quantile h 1.0);
  let nz = Telemetry.Histogram.nonzero h in
  check Alcotest.int "4 nonzero buckets" 4 (List.length nz);
  let h2 = Telemetry.Histogram.create () in
  Telemetry.Histogram.observe h2 1;
  Telemetry.Histogram.merge_into ~dst:h2 h;
  check Alcotest.int "merged count" 6 (Telemetry.Histogram.count h2);
  Telemetry.Histogram.reset h;
  check Alcotest.int "reset count" 0 (Telemetry.Histogram.count h);
  check Alcotest.int "reset sum" 0 (Telemetry.Histogram.sum h)

(* --- ring ----------------------------------------------------------- *)

let test_ring_wraparound () =
  let r = Telemetry.Ring.create 4 in
  check Alcotest.int "capacity" 4 (Telemetry.Ring.capacity r);
  check (Alcotest.list Alcotest.int) "empty" [] (Telemetry.Ring.to_list r);
  check (Alcotest.option Alcotest.int) "no last" None (Telemetry.Ring.last r);
  for i = 0 to 9 do
    Telemetry.Ring.push r i
  done;
  check Alcotest.int "length capped" 4 (Telemetry.Ring.length r);
  check Alcotest.int "pushed counts everything" 10 (Telemetry.Ring.pushed r);
  check (Alcotest.list Alcotest.int) "oldest evicted, oldest-first order"
    [ 6; 7; 8; 9 ] (Telemetry.Ring.to_list r);
  check (Alcotest.option Alcotest.int) "last" (Some 9) (Telemetry.Ring.last r);
  Telemetry.Ring.clear r;
  check Alcotest.int "cleared" 0 (Telemetry.Ring.length r);
  Telemetry.Ring.push r 42;
  check (Alcotest.list Alcotest.int) "usable after clear" [ 42 ]
    (Telemetry.Ring.to_list r);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Ring.create: capacity < 1") (fun () ->
      ignore (Telemetry.Ring.create 0))

let test_ring_exact_capacity () =
  let r = Telemetry.Ring.create 3 in
  List.iter (Telemetry.Ring.push r) [ 1; 2; 3 ];
  check (Alcotest.list Alcotest.int) "full, nothing evicted" [ 1; 2; 3 ]
    (Telemetry.Ring.to_list r);
  Telemetry.Ring.push r 4;
  check (Alcotest.list Alcotest.int) "one evicted" [ 2; 3; 4 ]
    (Telemetry.Ring.to_list r)

(* --- registry ------------------------------------------------------- *)

let test_registry_snapshot_delta () =
  let reg = Telemetry.Registry.create () in
  let a = Telemetry.Registry.counter reg "a" in
  let a' = Telemetry.Registry.counter reg "a" in
  check Alcotest.bool "find-or-create returns the same ref" true (a == a');
  incr a;
  incr a;
  let h = Telemetry.Registry.histogram reg "h" in
  Telemetry.Histogram.observe h 5;
  let s1 = Telemetry.Registry.snapshot reg in
  (match List.assoc "a" s1 with
  | Telemetry.Registry.Vcount n -> check Alcotest.int "counter value" 2 n
  | _ -> Alcotest.fail "a is not a counter");
  incr a;
  Telemetry.Histogram.observe h 6;
  Telemetry.Histogram.observe h 100;
  let s2 = Telemetry.Registry.snapshot reg in
  let d = Telemetry.Registry.delta ~since:s1 s2 in
  (match List.assoc "a" d with
  | Telemetry.Registry.Vcount n -> check Alcotest.int "delta counter" 1 n
  | _ -> Alcotest.fail "a is not a counter in delta");
  (match List.assoc "h" d with
  | Telemetry.Registry.Vhist { count; _ } ->
      check Alcotest.int "delta hist count" 2 count
  | _ -> Alcotest.fail "h is not a histogram in delta");
  let json = Telemetry.Registry.to_json s2 in
  check Alcotest.bool "json mentions both" true
    (let has sub =
       let n = String.length sub and m = String.length json in
       let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
       go 0
     in
     has "\"a\": 3" && has "\"h\"" && has "\"count\": 3");
  Telemetry.Registry.reset reg;
  check Alcotest.int "reset zeroes counters" 0 !a;
  check Alcotest.int "reset zeroes histograms" 0 (Telemetry.Histogram.count h)

(* --- the JSON writer ------------------------------------------------- *)

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_json_escapes () =
  let open Telemetry.Json in
  check Alcotest.string "quote, backslash, newline, 0x01"
    {|"a\"b\\c\nd\u0001"|}
    (to_string (String "a\"b\\c\nd\001"));
  check Alcotest.string "str is the same literal" {|"a\"b\\c\nd\u0001"|}
    (str "a\"b\\c\nd\001");
  check Alcotest.string "keys escape too" {|{"k\"": 1}|}
    (to_string (Obj [ ("k\"", Int 1) ]))

let test_json_numbers () =
  let open Telemetry.Json in
  check Alcotest.string "non-finite floats are null" "[null, null, null]"
    (to_string (List [ Float nan; Float infinity; Float neg_infinity ]));
  check Alcotest.string "ints print without a fraction" "[42, -7, 0]"
    (to_string (List [ Int 42; Int (-7); Int 0 ]));
  check Alcotest.string "integral floats too" "3" (to_string (Float 3.0));
  check Alcotest.string "shortest round-trip decimal" "0.1"
    (to_string (Float 0.1));
  check Alcotest.string "fixed rounds to its decimals" "[0.13, 14641, -2.5]"
    (to_string (List [ fixed 2 0.125; fixed 1 14641.04; fixed 1 (-2.5) ]))

let test_json_layout () =
  let open Telemetry.Json in
  check Alcotest.string "empty object" "{}" (to_string (Obj []));
  check Alcotest.string "empty list" "[]" (to_string (List []));
  check Alcotest.string "pretty empty object" "{}" (to_string ~pretty:true (Obj []));
  check Alcotest.string "pretty empty list" "[]" (to_string ~pretty:true (List []));
  let row i = Obj [ ("id", Int i); ("name", String (String.make 40 'x')); ("ok", Bool true) ] in
  let v = Obj [ ("rows", List (List.init 5 row)); ("none", Null) ] in
  check Alcotest.bool "compact output has no newline" false
    (String.contains (to_string v) '\n');
  let pretty = to_string ~pretty:true v in
  check Alcotest.bool "pretty breaks what does not fit" true
    (String.contains pretty '\n');
  check Alcotest.bool "pretty keeps a row that fits on one line" true
    (contains pretty
       ("\n    " ^ to_string (row 3) ^ ",\n"));
  check Alcotest.string "short values stay on one line" {|{"a": [1, 2], "b": null}|}
    (to_string ~pretty:true (Obj [ ("a", List [ Int 1; Int 2 ]); ("b", Null) ]))

(* One histogram object, one rendering: the registry's JSON nests it
   and the JSON-lines export puts the same members on its line. *)
let test_json_histogram_shared () =
  let reg = Telemetry.Registry.create () in
  let h = Telemetry.Registry.histogram reg "lat" in
  List.iter (Telemetry.Histogram.observe h) [ 1; 2; 3; 100 ];
  let snap = Telemetry.Registry.snapshot reg in
  let obj =
    Telemetry.Json.to_string
      (Telemetry.Json.Obj (Telemetry.Registry.value_fields (List.assoc "lat" snap)))
  in
  check Alcotest.bool "to_json nests the histogram object" true
    (contains (Telemetry.Registry.to_json snap) ("\"lat\": " ^ obj));
  check Alcotest.string "json_lines carries the same members"
    ("{\"name\": \"lat\", \"type\": \"histogram\", "
    ^ String.sub obj 1 (String.length obj - 1)
    ^ "\n")
    (Telemetry.Export.json_lines snap)

(* --- the data-plane workload ---------------------------------------- *)

let ip = Netpkt.Ip4.of_string_exn
let mac = Netpkt.Mac.of_string_exn

let flow ~src ~dst ~src_port ~dst_port =
  Netpkt.Pkt.encode
    (Netpkt.Pkt.tcp_flow ~src_mac:(mac "02:00:00:00:00:01")
       ~dst_mac:(mac "02:00:00:00:00:02")
       {
         Netpkt.Flow.src = ip src;
         dst;
         proto = Netpkt.Ipv4.proto_tcp;
         src_port;
         dst_port;
       })

(* kind 0 = green (router only), 1 = orange (vgw), 2 = red (full chain
   through the LB, punting new flows to the CPU). *)
let frame_of_kind kind i =
  match kind mod 3 with
  | 0 ->
      flow ~src:"203.0.113.7"
        ~dst:(ip (Printf.sprintf "10.0.3.%d" (1 + (i mod 200))))
        ~src_port:(40000 + (i mod 97)) ~dst_port:443
  | 1 ->
      flow ~src:"203.0.113.8"
        ~dst:(ip (Printf.sprintf "10.0.2.%d" (1 + (i mod 200))))
        ~src_port:(41000 + (i mod 89)) ~dst_port:80
  | _ ->
      flow ~src:"203.0.113.9" ~dst:Nflib.Catalog.tenant1_vip
        ~src_port:(50000 + (i mod 61)) ~dst_port:80

let fresh_runtime ?(mode = Asic.Chip.Fast) level =
  let compiled =
    Result.get_ok (Compiler.compile (Nflib.Catalog.edge_cloud_input ()))
  in
  let rt =
    Runtime.create
      ~engine:
        { Runtime.Engine.default with exec_mode = mode; telemetry = level }
      compiled
  in
  Nflib.Catalog.attach_handlers rt compiled;
  rt

(* --- observation-only: telemetry never changes behavior ------------- *)

(* The pinned property: for any workload, a Counters (or Journeys) run
   produces byte-identical outputs — same digest, same verdict counts,
   same error log — as an uninstrumented run. *)
let prop_observation_only =
  QCheck.Test.make ~name:"Counters/Journeys telemetry = observation only"
    ~count:12
    QCheck.(
      pair (small_list (int_bound 2)) (int_bound 1))
    (fun (kinds, journeys) ->
      let workload = List.mapi (fun i k -> (0, frame_of_kind k i)) kinds in
      let run level = Runtime.process_batch (fresh_runtime level) workload in
      let off = run Telemetry.Level.Off in
      let on =
        run
          (if journeys = 1 then Telemetry.Level.Journeys
           else Telemetry.Level.Counters)
      in
      off = on)

(* The control trace is a journey-recorder artifact: only [Journeys]
   records hops, and recording them changes nothing the packet sees —
   the fast path's hops, control events included, equal the reference
   interpreter's. *)
let test_traces_unchanged () =
  let frame = frame_of_kind 0 7 in
  let walk ?mode level =
    let rt = fresh_runtime ?mode level in
    match Asic.Chip.inject (Runtime.chip rt) ~in_port:0 frame with
    | Ok r -> r.Asic.Chip.hops
    | Error e -> Alcotest.fail e
  in
  let traced = walk Telemetry.Level.Journeys in
  check Alcotest.bool "Journeys records a trace" true
    (List.exists
       (fun (h : Telemetry.Journey.hop) -> h.Telemetry.Journey.events <> [])
       traced);
  check Alcotest.bool "Off records none" true (walk Telemetry.Level.Off = []);
  check Alcotest.bool "Counters records none" true
    (walk Telemetry.Level.Counters = []);
  check Alcotest.bool "Reference trace identical" true
    (traced = walk ~mode:Asic.Chip.Reference Telemetry.Level.Journeys)

(* --- counters through the chip -------------------------------------- *)

let count_of snap name =
  match List.assoc_opt name snap with
  | Some (Telemetry.Registry.Vcount n) -> n
  | Some _ -> Alcotest.fail (name ^ " is not a counter")
  | None -> Alcotest.fail (name ^ " not in snapshot")

let test_counters_content () =
  let rt = fresh_runtime Telemetry.Level.Counters in
  let n = 30 in
  let workload = List.init n (fun i -> (0, frame_of_kind i i)) in
  let stats = Runtime.process_batch rt workload in
  check Alcotest.int "all emitted" n stats.Runtime.emitted;
  let o = Option.get (Runtime.telemetry rt) in
  let snap = Observe.snapshot o (Runtime.chip rt) in
  check Alcotest.int "rx on port 0" n (count_of snap "port.0.rx");
  check Alcotest.int "tx on port 1" n (count_of snap "port.1.tx");
  check Alcotest.int "emitted counter" n (count_of snap "verdict.emitted");
  (* The classifier sees every packet; 10 of 30 are red (via the LB). *)
  check Alcotest.int "classifier applies" n
    (count_of snap "nf.classifier.applies");
  check Alcotest.int "router applies" n (count_of snap "nf.router.applies");
  check Alcotest.int "classifier table hits" n
    (count_of snap "table.ingress_0.classifier__classify.hits");
  check Alcotest.int "one CPU punt per red flow" 10
    (count_of snap "path.cpu_punts");
  (* Per-entry hits sum to the table's hit counter. *)
  let entry_sum =
    List.fold_left
      (fun acc (where, hits) ->
        if where = "ingress 0/classifier__classify" then
          List.fold_left (fun a (_, h) -> a + h) acc hits
        else acc)
      0
      (Observe.table_entry_hits (Runtime.chip rt))
  in
  check Alcotest.int "entry hits sum to table hits" n entry_sum;
  (* The ns histogram saw every packet. *)
  (match List.assoc_opt "runtime.ns_per_packet" snap with
  | Some (Telemetry.Registry.Vhist { count; sum; _ }) ->
      check Alcotest.int "histogram count" n count;
      check Alcotest.bool "nonzero time" true (sum > 0)
  | _ -> Alcotest.fail "runtime.ns_per_packet missing")

(* --- journeys ------------------------------------------------------- *)

let test_journey_capture () =
  let rt = fresh_runtime Telemetry.Level.Journeys in
  let n = Observe.default_ring_capacity + 44 in
  let workload = List.init n (fun i -> (0, frame_of_kind 2 i)) in
  ignore (Runtime.process_batch rt workload);
  let o = Option.get (Runtime.telemetry rt) in
  check Alcotest.int "ring keeps the last 256" Observe.default_ring_capacity
    (List.length (Observe.journeys o));
  check Alcotest.int "every packet was recorded" n
    (Telemetry.Ring.pushed (Observe.ring o));
  let j = Option.get (Telemetry.Ring.last (Observe.ring o)) in
  check Alcotest.int "ids are sequential" (n - 1) j.Telemetry.Journey.id;
  check Alcotest.int "in_port recorded" 0 j.Telemetry.Journey.in_port;
  check Alcotest.bool "emitted verdict" true
    (String.length j.Telemetry.Journey.verdict >= 7
    && String.sub j.Telemetry.Journey.verdict 0 7 = "emitted");
  check Alcotest.bool "has hops" true (j.Telemetry.Journey.hops <> []);
  let hop = List.hd j.Telemetry.Journey.hops in
  check Alcotest.string "first hop is ingress 0" "ingress 0"
    hop.Telemetry.Journey.pipelet;
  check Alcotest.bool "hop saw the classifier" true
    (List.mem "classifier" (Telemetry.Journey.nfs hop));
  check Alcotest.bool "hop records tables with actions" true
    (List.exists
       (fun (t, a, hit) -> t = "classifier__classify" && a = "set_path" && hit)
       (Telemetry.Journey.tables hop));
  (* A hop holds its own pass's events only: the classifier runs once
     per packet. *)
  check Alcotest.int "classifier in one hop" 1
    (List.length
       (List.filter
          (fun h -> List.mem "classifier" (Telemetry.Journey.nfs h))
          j.Telemetry.Journey.hops));
  (* The parser path (valid headers) rides in hop meta. *)
  check Alcotest.bool "parser path includes eth" true
    (List.mem "eth" hop.Telemetry.Journey.meta.Telemetry.Journey.headers);
  (* Red chain carries the SFC header: some hop knows its position. *)
  check Alcotest.bool "an SFC position was captured" true
    (List.exists
       (fun (h : Telemetry.Journey.hop) ->
         h.Telemetry.Journey.meta.Telemetry.Journey.sfc <> None)
       j.Telemetry.Journey.hops);
  (* Journey JSON renders without raising and mentions the verdict. *)
  let js = Telemetry.Journey.to_json j in
  check Alcotest.bool "json has verdict" true
    (let has sub =
       let n = String.length sub and m = String.length js in
       let rec go i = i + n <= m && (String.sub js i n = sub || go (i + 1)) in
       go 0
     in
     has "\"verdict\"" && has "\"hops\"")

(* --- batch error log ------------------------------------------------- *)

let test_batch_error_log () =
  let rt = fresh_runtime Telemetry.Level.Off in
  let bad_port = 999 in
  let good i = (0, frame_of_kind 0 i) in
  let bad i = (bad_port, frame_of_kind 0 i) in
  let workload =
    List.concat
      [
        [ good 0 ];
        List.init 12 bad;
        [ good 1 ];
      ]
  in
  let stats = Runtime.process_batch rt workload in
  check Alcotest.int "all errors counted" 12 stats.Runtime.errors;
  check Alcotest.int "log capped at max_error_log" Runtime.max_error_log
    (List.length stats.Runtime.error_log);
  List.iter
    (fun (port, msg) ->
      check Alcotest.int "offending in_port recorded" bad_port port;
      check Alcotest.bool "message preserved" true
        (String.length msg > 0
        && String.length msg >= 3
        && msg <> ""))
    stats.Runtime.error_log;
  check Alcotest.int "good packets still processed" 2 stats.Runtime.emitted

let () =
  Alcotest.run "telemetry"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket edges" `Quick test_histogram_bucket_edges;
          Alcotest.test_case "observe/quantile/merge" `Quick
            test_histogram_observe;
        ] );
      ( "ring",
        [
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "exact capacity" `Quick test_ring_exact_capacity;
        ] );
      ( "registry",
        [
          Alcotest.test_case "snapshot and delta" `Quick
            test_registry_snapshot_delta;
        ] );
      ( "json",
        [
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "layout" `Quick test_json_layout;
          Alcotest.test_case "one histogram object" `Quick
            test_json_histogram_shared;
        ] );
      ( "observation_only",
        [
          qtest prop_observation_only;
          Alcotest.test_case "traces unchanged" `Quick test_traces_unchanged;
        ] );
      ( "counters",
        [ Alcotest.test_case "content" `Quick test_counters_content ] );
      ( "journeys",
        [ Alcotest.test_case "capture" `Quick test_journey_capture ] );
      ( "batch",
        [ Alcotest.test_case "error log" `Quick test_batch_error_log ] );
    ]
