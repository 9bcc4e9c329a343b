(* Exporter and INT-report tests: Prometheus golden rendering and the
   parse round-trip, JSON-lines shape, windowed rate math, the INT
   per-flow aggregate's bounds/aggregation/merge, and the QCheck property
   pinning fast-mode INT hop records to the reference interpreter's
   trace segmentation. *)

open Dejavu_core

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let has ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- mangle ---------------------------------------------------------- *)

let test_mangle () =
  check Alcotest.string "dots become underscores" "runtime_ns_per_packet"
    (Telemetry.Export.mangle "runtime.ns_per_packet");
  check Alcotest.string "leading digit prefixed" "_9lives"
    (Telemetry.Export.mangle "9lives");
  check Alcotest.string "colons survive" "a:b" (Telemetry.Export.mangle "a:b");
  check Alcotest.string "illegal chars" "weird_name_"
    (Telemetry.Export.mangle "weird name!");
  check Alcotest.string "empty name" "_" (Telemetry.Export.mangle "")

(* --- a small snapshot to render -------------------------------------- *)

(* One counter and one histogram with known content: observations
   1, 2, 3, 100 land in log2 buckets [1,1], [2,3] (x2) and [64,127]. *)
let sample_snapshot () =
  let reg = Telemetry.Registry.create () in
  Telemetry.Registry.counter reg "verdict.emitted" := 3;
  let h = Telemetry.Registry.histogram reg "runtime.ns_per_packet" in
  List.iter (Telemetry.Histogram.observe h) [ 1; 2; 3; 100 ];
  Telemetry.Registry.snapshot reg

(* --- Prometheus text exposition -------------------------------------- *)

let test_prometheus_golden () =
  let text = Telemetry.Export.prometheus (sample_snapshot ()) in
  check Alcotest.bool "counter TYPE line" true
    (has ~sub:"# TYPE dejavu_verdict_emitted_total counter\n" text);
  check Alcotest.bool "counter sample" true
    (has ~sub:"dejavu_verdict_emitted_total 3\n" text);
  check Alcotest.bool "histogram TYPE line" true
    (has ~sub:"# TYPE dejavu_runtime_ns_per_packet histogram\n" text);
  (* Cumulative buckets: 1 below le=1, 3 below le=3, all 4 below
     le=127 and +Inf. *)
  check Alcotest.bool "le=1 bucket" true
    (has ~sub:"dejavu_runtime_ns_per_packet_bucket{le=\"1\"} 1\n" text);
  check Alcotest.bool "le=3 bucket cumulative" true
    (has ~sub:"dejavu_runtime_ns_per_packet_bucket{le=\"3\"} 3\n" text);
  check Alcotest.bool "le=127 bucket cumulative" true
    (has ~sub:"dejavu_runtime_ns_per_packet_bucket{le=\"127\"} 4\n" text);
  check Alcotest.bool "+Inf closes with the count" true
    (has ~sub:"dejavu_runtime_ns_per_packet_bucket{le=\"+Inf\"} 4\n" text);
  check Alcotest.bool "sum" true
    (has ~sub:"dejavu_runtime_ns_per_packet_sum 106\n" text);
  check Alcotest.bool "count" true
    (has ~sub:"dejavu_runtime_ns_per_packet_count 4\n" text);
  check Alcotest.bool "ends with newline" true
    (String.length text > 0 && text.[String.length text - 1] = '\n');
  let custom =
    Telemetry.Export.prometheus ~namespace:"my.ns" (sample_snapshot ())
  in
  check Alcotest.bool "namespace is mangled too" true
    (has ~sub:"my_ns_verdict_emitted_total 3\n" custom)

let test_prometheus_roundtrip () =
  let text = Telemetry.Export.prometheus (sample_snapshot ()) in
  match Telemetry.Export.parse_prometheus text with
  | Error e -> Alcotest.fail ("self-render failed to parse: " ^ e)
  | Ok metrics ->
      (* 1 counter sample + 3 populated buckets + Inf + sum + count. *)
      check Alcotest.int "sample count" 7 (List.length metrics);
      let counter =
        List.find
          (fun (m : Telemetry.Export.metric) ->
            m.Telemetry.Export.metric = "dejavu_verdict_emitted_total")
          metrics
      in
      check (Alcotest.float 0.0) "counter value" 3.0
        counter.Telemetry.Export.value;
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
        "counter has no labels" [] counter.Telemetry.Export.labels;
      let inf_bucket =
        List.find
          (fun (m : Telemetry.Export.metric) ->
            m.Telemetry.Export.labels = [ ("le", "+Inf") ])
          metrics
      in
      check (Alcotest.float 0.0) "+Inf bucket = count" 4.0
        inf_bucket.Telemetry.Export.value;
      (* Cumulative bucket series is monotone non-decreasing. *)
      let buckets =
        List.filter_map
          (fun (m : Telemetry.Export.metric) ->
            if m.Telemetry.Export.metric = "dejavu_runtime_ns_per_packet_bucket"
            then Some m.Telemetry.Export.value
            else None)
          metrics
      in
      check Alcotest.int "all buckets parsed" 4 (List.length buckets);
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      check Alcotest.bool "buckets cumulative" true (monotone buckets)

let test_prometheus_parse_errors () =
  (match Telemetry.Export.parse_prometheus "dejavu_x 1\n???bad 2\n" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e ->
      check Alcotest.bool "error pinpoints line 2" true (has ~sub:"line 2" e));
  (match Telemetry.Export.parse_prometheus "dejavu_x\n" with
  | Ok _ -> Alcotest.fail "expected a missing-value error"
  | Error _ -> ());
  (* Comments, blanks and labels with escapes are accepted. *)
  match
    Telemetry.Export.parse_prometheus
      "# a comment\n\nup{job=\"a\\\"b\",instance=\"x\"} 1 1700000000\n"
  with
  | Error e -> Alcotest.fail e
  | Ok [ m ] ->
      check Alcotest.string "name" "up" m.Telemetry.Export.metric;
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
        "labels with escaped quote"
        [ ("job", "a\"b"); ("instance", "x") ]
        m.Telemetry.Export.labels;
      check (Alcotest.float 0.0) "value (timestamp ignored)" 1.0
        m.Telemetry.Export.value
  | Ok _ -> Alcotest.fail "expected exactly one sample"

(* --- JSON lines ------------------------------------------------------- *)

let test_json_lines () =
  let out = Telemetry.Export.json_lines ~now_ns:42L (sample_snapshot ()) in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
  in
  check Alcotest.int "one line per metric" 2 (List.length lines);
  List.iter
    (fun l ->
      check Alcotest.bool "line is a JSON object" true
        (l.[0] = '{' && l.[String.length l - 1] = '}');
      check Alcotest.bool "line is stamped" true (has ~sub:"\"ts_ns\": 42" l))
    lines;
  let counter_line = List.nth lines 0 and hist_line = List.nth lines 1 in
  check Alcotest.bool "counter name" true
    (has ~sub:"\"name\": \"verdict.emitted\"" counter_line);
  check Alcotest.bool "counter value" true
    (has ~sub:"\"value\": 3" counter_line);
  check Alcotest.bool "histogram fields" true
    (has ~sub:"\"type\": \"histogram\"" hist_line
    && has ~sub:"\"count\": 4" hist_line
    && has ~sub:"\"sum\": 106" hist_line);
  let unstamped = Telemetry.Export.json_lines (sample_snapshot ()) in
  check Alcotest.bool "no ts_ns without now_ns" false
    (has ~sub:"ts_ns" unstamped)

(* --- windowed rates --------------------------------------------------- *)

let test_window_rates () =
  let w = Telemetry.Export.Window.create ~capacity:2 in
  check Alcotest.int "empty window" 0 (Telemetry.Export.Window.length w);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 0.0)))
    "no rates with one snapshot" []
    (Telemetry.Export.Window.rates w);
  let reg = Telemetry.Registry.create () in
  let pkts = Telemetry.Registry.counter reg "pkts" in
  let h = Telemetry.Registry.histogram reg "lat" in
  Telemetry.Export.Window.push w ~now_ns:0L (Telemetry.Registry.snapshot reg);
  pkts := 500;
  List.iter (Telemetry.Histogram.observe h) [ 1; 2; 3; 4; 5 ];
  (* A counter born after the first snapshot rates from zero. *)
  Telemetry.Registry.counter reg "late" := 100;
  Telemetry.Export.Window.push w ~now_ns:2_000_000_000L
    (Telemetry.Registry.snapshot reg);
  check Alcotest.int "two snapshots retained" 2
    (Telemetry.Export.Window.length w);
  check Alcotest.int64 "span" 2_000_000_000L
    (Telemetry.Export.Window.span_ns w);
  let rates = Telemetry.Export.Window.rates w in
  let rate name =
    match List.assoc_opt name rates with
    | Some r -> r
    | None -> Alcotest.fail (name ^ " missing from rates")
  in
  check (Alcotest.float 1e-9) "counter rate" 250.0 (rate "pkts");
  check (Alcotest.float 1e-9) "histogram rates its count" 2.5
    (rate "lat.count");
  check (Alcotest.float 1e-9) "absent-from-oldest counts from zero" 50.0
    (rate "late");
  (* Capacity 2: a third push evicts the oldest, so the window is now
     the last two snapshots. *)
  pkts := 600;
  Telemetry.Export.Window.push w ~now_ns:3_000_000_000L
    (Telemetry.Registry.snapshot reg);
  check Alcotest.int "capacity bounds the ring" 2
    (Telemetry.Export.Window.length w);
  check Alcotest.int64 "span slides" 1_000_000_000L
    (Telemetry.Export.Window.span_ns w);
  check (Alcotest.float 1e-9) "rate over the slid window" 100.0
    (List.assoc "pkts" (Telemetry.Export.Window.rates w));
  (* Equal timestamps yield no rates rather than a division by zero. *)
  let w0 = Telemetry.Export.Window.create ~capacity:4 in
  let s = Telemetry.Registry.snapshot reg in
  Telemetry.Export.Window.push w0 ~now_ns:7L s;
  Telemetry.Export.Window.push w0 ~now_ns:7L s;
  check Alcotest.int "zero-span rates" 0
    (List.length (Telemetry.Export.Window.rates w0))

(* --- INT per-flow aggregate ------------------------------------------- *)

let hop ?(recirc = 0) ?(resubmit = 0) lat =
  {
    Telemetry.Journey.pipelet = "ingress 0";
    events = [];
    latency_ns = lat;
    recirc_depth = recirc;
    resubmit_depth = resubmit;
    meta = Telemetry.Journey.no_meta;
  }

let journey ?(verdict = "emitted:1") flow hops =
  {
    Telemetry.Journey.id = 0;
    flow;
    in_port = 0;
    verdict;
    cpu_round_trips = 0;
    recircs = 0;
    resubmits = 0;
    latency_ns = 0.0;
    wall_ns = 10;
    hops;
  }

let test_int_sink_bounds () =
  let t = Telemetry.Int_report.create ~max_flows:2 () in
  Telemetry.Int_report.push t (journey "A" [ hop 100.0; hop 50.0 ]);
  Telemetry.Int_report.push t (journey "A" [ hop 100.0; hop 50.0 ]);
  Telemetry.Int_report.push t (journey "B" [ hop 30.0 ]);
  Telemetry.Int_report.push t (journey "C" [ hop 7.0 ]);
  check Alcotest.int "every push counted" 4 (Telemetry.Int_report.pushed t);
  check Alcotest.int "flow table capped" 2 (Telemetry.Int_report.flows t);
  check Alcotest.int "overflow flow counted, not silent" 1
    (Telemetry.Int_report.dropped_flows t);
  (match Telemetry.Int_report.summaries t with
  | (a : Telemetry.Int_report.summary) :: _ ->
      check Alcotest.string "most packets first" "A"
        a.Telemetry.Int_report.flow;
      check Alcotest.int "packets" 2 a.Telemetry.Int_report.packets;
      check Alcotest.int "hops accumulate" 4 a.Telemetry.Int_report.hops;
      check Alcotest.int "max hops per walk" 2
        a.Telemetry.Int_report.max_hops;
      check (Alcotest.float 1e-9) "latency sums" 300.0
        a.Telemetry.Int_report.latency_ns;
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
        "verdict tally"
        [ ("emitted:1", 2) ]
        a.Telemetry.Int_report.verdicts
  | [] -> Alcotest.fail "no summaries");
  let js =
    Telemetry.Int_report.summary_to_json
      (List.hd (Telemetry.Int_report.summaries t))
  in
  check Alcotest.bool "summary json has the flow" true (has ~sub:"\"A\"" js);
  Telemetry.Int_report.clear t;
  check Alcotest.int "clear empties flows" 0 (Telemetry.Int_report.flows t);
  check Alcotest.int "clear resets the push count" 0
    (Telemetry.Int_report.pushed t)

let test_int_sink_merge () =
  let a = Telemetry.Int_report.create ~max_flows:16 () in
  let b = Telemetry.Int_report.create ~max_flows:16 () in
  Telemetry.Int_report.push a (journey "X" [ hop 10.0 ]);
  Telemetry.Int_report.push a (journey "Y" [ hop ~recirc:1 20.0 ]);
  Telemetry.Int_report.push b (journey "X" [ hop 30.0 ]);
  Telemetry.Int_report.push b (journey "Z" [ hop 40.0 ]);
  Telemetry.Int_report.merge ~into:a b;
  check Alcotest.int "union of flows" 3 (Telemetry.Int_report.flows a);
  let x =
    List.find
      (fun (s : Telemetry.Int_report.summary) ->
        s.Telemetry.Int_report.flow = "X")
      (Telemetry.Int_report.summaries a)
  in
  check Alcotest.int "shared flow adds field-wise" 2
    x.Telemetry.Int_report.packets;
  check (Alcotest.float 1e-9) "latency summed" 40.0
    x.Telemetry.Int_report.latency_ns;
  check Alcotest.int "push counts sum" 4 (Telemetry.Int_report.pushed a);
  (* merge does not disturb the source. *)
  check Alcotest.int "src untouched" 2 (Telemetry.Int_report.flows b)

(* --- the data-plane workload (as in test_telemetry) ------------------- *)

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

let runtime_with mode =
  let compiled =
    Result.get_ok (Compiler.compile (Nflib.Catalog.edge_cloud_input ()))
  in
  let rt =
    Runtime.create
      ~engine:
        {
          Runtime.Engine.default with
          Runtime.Engine.exec_mode = mode;
          telemetry = Telemetry.Level.Journeys;
        }
      compiled
  in
  Nflib.Catalog.attach_handlers rt compiled;
  rt

(* --- INT records through the runtime ---------------------------------- *)

let test_int_sink_via_runtime () =
  let rt = runtime_with Asic.Chip.Fast in
  let n = 9 in
  let workload = List.init n (fun i -> (0, frame_of_kind (i mod 3) i)) in
  ignore (Runtime.process_batch rt workload);
  let sink = Option.get (Runtime.int_sink rt) in
  check Alcotest.int "one postcard per packet" n
    (Telemetry.Int_report.pushed sink);
  check Alcotest.bool "flows aggregated" true
    (Telemetry.Int_report.flows sink >= 3);
  check Alcotest.int "nothing dropped" 0
    (Telemetry.Int_report.dropped_flows sink);
  let total_packets =
    List.fold_left
      (fun acc (s : Telemetry.Int_report.summary) ->
        acc + s.Telemetry.Int_report.packets)
      0
      (Telemetry.Int_report.summaries sink)
  in
  check Alcotest.int "summaries cover every packet" n total_packets;
  (* The snapshot front door exposes the sink sizes as gauges and the
     whole registry round-trips through the Prometheus parser — the CI
     smoke step in miniature. *)
  let snap = Option.get (Runtime.snapshot rt) in
  let postcards what rt n =
    match List.assoc_opt "int.postcards" (Option.get (Runtime.snapshot rt)) with
    | Some (Telemetry.Registry.Vcount c) -> check Alcotest.int what n c
    | _ -> Alcotest.fail "int.postcards gauge missing"
  in
  postcards "int.postcards gauge" rt n;
  (match Telemetry.Export.parse_prometheus (Telemetry.Export.prometheus snap)
   with
  | Ok metrics -> check Alcotest.bool "exposition non-empty" true (metrics <> [])
  | Error e -> Alcotest.fail ("runtime snapshot failed to round-trip: " ^ e));
  (* Two shards, each with a flight recorder smaller than its share of
     the batch: more packets than both recorders hold together, so the
     merged gauge counts every packet, not only the journeys the
     recorders retained. *)
  let rt = runtime_with Asic.Chip.Fast in
  let n = (2 * Observe.default_ring_capacity) + 88 in
  let batch = List.init n (fun i -> (0, frame_of_kind (i mod 3) i)) in
  List.iter
    (fun d ->
      check Alcotest.bool
        (Printf.sprintf "shard %d overflows its recorder" d)
        true
        (List.length
           (List.filter
              (fun (p, f) -> Runtime.shard_of_packet ~domains:2 p f = d)
              batch)
        > Observe.default_ring_capacity))
    [ 0; 1 ];
  ignore (Runtime.process_batch_parallel ~domains:2 rt batch);
  postcards "int.postcards after a 2-domain batch" rt n

(* --- property: fast-mode hop records = reference segmentation --------- *)

(* Everything a hop records except its latency share (floats are
   compared as sums below, where rounding is controlled). *)
let hop_shape (h : Telemetry.Journey.hop) =
  ( h.Telemetry.Journey.pipelet,
    h.Telemetry.Journey.events,
    h.Telemetry.Journey.recirc_depth,
    h.Telemetry.Journey.resubmit_depth,
    h.Telemetry.Journey.meta )

let prop_int_hops_match_reference =
  QCheck.Test.make
    ~name:"fast INT hop records = reference trace segmentation" ~count:10
    QCheck.(small_list (int_bound 2))
    (fun kinds ->
      let workload = List.mapi (fun i k -> (0, frame_of_kind k i)) kinds in
      let run mode =
        let rt = runtime_with mode in
        ignore (Runtime.process_batch rt workload);
        let o = Option.get (Runtime.telemetry rt) in
        (Observe.journeys o, Option.get (Runtime.int_sink rt))
      in
      let jf, sf = run Asic.Chip.Fast in
      let jr, sr = run Asic.Chip.Reference in
      List.length jf = List.length jr
      && List.for_all2
           (fun (a : Telemetry.Journey.t) (b : Telemetry.Journey.t) ->
             a.Telemetry.Journey.verdict = b.Telemetry.Journey.verdict
             && List.map hop_shape a.Telemetry.Journey.hops
                = List.map hop_shape b.Telemetry.Journey.hops)
           jf jr
      (* Per-hop latencies telescope back to each journey's end-to-end
         modelled latency, in both modes. *)
      && List.for_all
           (fun (j : Telemetry.Journey.t) ->
             let s =
               List.fold_left
                 (fun acc (h : Telemetry.Journey.hop) ->
                   acc +. h.Telemetry.Journey.latency_ns)
                 0.0 j.Telemetry.Journey.hops
             in
             abs_float (s -. j.Telemetry.Journey.latency_ns)
             <= 1e-6 *. Float.max 1.0 j.Telemetry.Journey.latency_ns)
           (jf @ jr)
      (* And the per-flow INT aggregates agree across modes. *)
      && List.for_all2
           (fun (a : Telemetry.Int_report.summary)
                (b : Telemetry.Int_report.summary) ->
             a.Telemetry.Int_report.flow = b.Telemetry.Int_report.flow
             && a.Telemetry.Int_report.packets = b.Telemetry.Int_report.packets
             && a.Telemetry.Int_report.hops = b.Telemetry.Int_report.hops
             && a.Telemetry.Int_report.max_hops
                = b.Telemetry.Int_report.max_hops
             && a.Telemetry.Int_report.recircs = b.Telemetry.Int_report.recircs
             && a.Telemetry.Int_report.resubmits
                = b.Telemetry.Int_report.resubmits
             && a.Telemetry.Int_report.verdicts
                = b.Telemetry.Int_report.verdicts)
           (Telemetry.Int_report.summaries sf)
           (Telemetry.Int_report.summaries sr))

let () =
  Alcotest.run "export"
    [
      ("mangle", [ Alcotest.test_case "names" `Quick test_mangle ]);
      ( "prometheus",
        [
          Alcotest.test_case "golden" `Quick test_prometheus_golden;
          Alcotest.test_case "round-trip" `Quick test_prometheus_roundtrip;
          Alcotest.test_case "parse errors" `Quick
            test_prometheus_parse_errors;
        ] );
      ("json_lines", [ Alcotest.test_case "shape" `Quick test_json_lines ]);
      ("window", [ Alcotest.test_case "rates" `Quick test_window_rates ]);
      ( "int_report",
        [
          Alcotest.test_case "bounds" `Quick test_int_sink_bounds;
          Alcotest.test_case "merge" `Quick test_int_sink_merge;
          Alcotest.test_case "via runtime" `Quick test_int_sink_via_runtime;
        ] );
      ("int_property", [ qtest prop_int_hops_match_reference ]);
    ]
