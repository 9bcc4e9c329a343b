(* Tests of the benchmark itself: its order statistics, spans and trace
   writer, generators, metric catalogue, and its correctness gate.

   Run by dune with two arguments: the repo's BENCHMARK.json and the
   benchmark executable. *)

open Perfbench

let benchmark_json = Sys.argv.(1)
let exe = Sys.argv.(2)
let feq = Alcotest.(float 1e-9)

(* --- Stats --- *)

let test_percentile () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p50" 50.0 (Stats.percentile a 50.0);
  Alcotest.check feq "p99" 99.0 (Stats.percentile a 99.0);
  Alcotest.check feq "p100" 100.0 (Stats.percentile a 100.0);
  let b = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  (* 99.9% of 1000 is rank 999 exactly, not one past it. *)
  Alcotest.check feq "p99.9 of 1000" 999.0 (Stats.percentile b 99.9);
  Alcotest.check feq "p99.99 of 1000" 1000.0 (Stats.percentile b 99.99);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.percentile [||] 50.0))

let test_supported () =
  let sp n = Stats.supported_percentile ~n in
  let opt = Alcotest.(option (float 0.0)) in
  Alcotest.check opt "1000 samples support p99 (10 beyond)" (Some 99.0) (sp 1000);
  Alcotest.check opt "999 samples do not: p90" (Some 90.0) (sp 999);
  Alcotest.check opt "10000 support p99.9" (Some 99.9) (sp 10_000);
  Alcotest.check opt "20 support the median" (Some 50.0) (sp 20);
  Alcotest.check opt "19 support nothing" None (sp 19);
  Alcotest.(check int) "beyond p99 of 300000" 3000 (Stats.beyond ~n:300_000 99.0)

let test_quantiles () =
  (* Expected values from Python's statistics.quantiles(data, n=4). *)
  let q l = Stats.quantiles ~n:4 l in
  let fl = Alcotest.(list (float 1e-12)) in
  Alcotest.check fl "7 values" [ 2.0; 4.0; 9.25 ] (q [ 7.0; 1.0; 3.5; 9.25; 2.0; 11.0; 4.0 ]);
  Alcotest.check fl "1..4" [ 1.25; 2.5; 3.75 ] (q [ 1.0; 2.0; 3.0; 4.0 ]);
  Alcotest.check fl "1..10" [ 2.75; 5.5; 8.25 ] (q (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check fl "two values extrapolate" [ 4.75; 5.5; 6.25 ] (q [ 5.0; 6.0 ]);
  Alcotest.check fl "deciles"
    [ 1.1; 2.2; 3.3; 4.4; 5.5; 6.6; 7.7; 8.8; 9.9 ]
    (Stats.quantiles ~n:10 (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check feq "median odd" 4.0 (Stats.median [ 7.0; 1.0; 3.5; 9.25; 2.0; 11.0; 4.0 ]);
  Alcotest.check feq "median even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_summarize () =
  let run pps p50 =
    Jsonv.Obj
      [
        ("correct", Jsonv.Bool true);
        ( "metrics",
          Jsonv.Obj
            [
              ("pkts_per_s", Jsonv.Obj [ ("value", Jsonv.Num pps); ("unit", Jsonv.Str "pkt/s") ]);
              ("pkt_ns_p50", Jsonv.Obj [ ("value", Jsonv.Num p50); ("unit", Jsonv.Str "ns") ]);
            ] );
      ]
  in
  let rows = Report.summarize [ run 1.0 40.0; run 2.0 10.0; run 3.0 30.0; run 4.0 20.0 ] in
  Alcotest.(check (list string)) "metrics in order" [ "pkts_per_s"; "pkt_ns_p50" ]
    (List.map (fun (n, _, _, _, _) -> n) rows);
  let _, n, med, q1, q3 = List.hd rows in
  Alcotest.(check int) "runs" 4 n;
  Alcotest.check feq "median" 2.5 med;
  Alcotest.check feq "q1" 1.25 q1;
  Alcotest.check feq "q3" 3.75 q3

let test_buf () =
  let b = Stats.Buf.create 1 in
  for i = 1 to 1000 do
    Stats.Buf.add b (float_of_int (1001 - i))
  done;
  Alcotest.(check int) "length" 1000 (Stats.Buf.length b);
  Alcotest.check feq "sum" 500500.0 (Stats.Buf.sum b);
  let s = Stats.Buf.sorted b in
  Alcotest.check feq "sorted first" 1.0 s.(0);
  Alcotest.check feq "sorted last" 1000.0 s.(999)

(* --- Spans --- *)

let test_union () =
  let u ivs lo hi = Span.union_length (Array.of_list ivs) ~lo ~hi in
  Alcotest.(check int) "overlap + gap" 25 (u [ (0, 10); (5, 15); (20, 30) ] 0 100);
  Alcotest.(check int) "clipped to the parent" 12 (u [ (0, 10); (5, 15); (20, 30) ] 8 25);
  Alcotest.(check int) "nested" 10 (u [ (0, 10); (2, 3); (4, 9) ] 0 100);
  Alcotest.(check int) "identical" 5 (u [ (1, 6); (1, 6) ] 0 100);
  Alcotest.(check int) "unsorted, touching" 20 (u [ (10, 20); (0, 10) ] 0 100);
  Alcotest.(check int) "outside" 0 (u [ (200, 300) ] 0 100);
  Alcotest.(check int) "none" 0 (u [] 0 100)

let test_self_time () =
  let sp = Span.create () in
  let n = Span.intern sp "n" in
  let add s e p = Span.add sp ~name:n ~start:s ~stop:e ~parent:p ~pkt:(-1) ~tid:0 in
  let parent = add 0 100 (-1) in
  let a = add 10 40 parent in
  let _ = add 30 60 parent in
  let _ = add 90 120 parent in
  let _ = add 15 20 a in
  let self = Span.self_times sp in
  (* Children cover [10,60) and [90,100) of the parent: 60 of 100. *)
  Alcotest.(check (pair int int)) "parent" (60, 40) self.(parent);
  Alcotest.(check (pair int int)) "child with a grandchild" (5, 25) self.(a);
  Array.iteri
    (fun i (covered, s) ->
      Alcotest.(check int) "self + union = duration" (Span.duration sp i) (covered + s))
    self

let test_chrome () =
  let sp = Span.create () in
  let batch = Span.intern sp "batch" and pkt = Span.intern sp "packet \"q\"" in
  let b = Span.add sp ~name:batch ~start:1_000 ~stop:9_500 ~parent:(-1) ~pkt:(-1) ~tid:0 in
  let p = Span.add sp ~name:pkt ~start:1_000 ~stop:2_250 ~parent:b ~pkt:7 ~tid:1 in
  let path = Filename.temp_file "trace" ".json" in
  let oc = open_out path in
  Span.write_chrome sp oc;
  close_out oc;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  match Jsonv.of_string text with
  | Error e -> Alcotest.fail ("trace does not parse: " ^ e)
  | Ok j -> (
      match Jsonv.member "traceEvents" j with
      | Some (Jsonv.Arr [ e0; e1 ]) ->
          let get k e = Option.get (Jsonv.member k e) in
          let num k e = Option.get (Jsonv.to_num (get k e)) in
          Alcotest.(check bool) "complete events" true (get "ph" e0 = Jsonv.Str "X");
          Alcotest.(check bool) "escaped name" true (get "name" e1 = Jsonv.Str "packet \"q\"");
          Alcotest.check feq "ts relative, in us" 0.0 (num "ts" e0);
          Alcotest.check feq "dur in us" 8.5 (num "dur" e0);
          Alcotest.check feq "child dur" 1.25 (num "dur" e1);
          Alcotest.check feq "tid" 1.0 (num "tid" e1);
          let args = get "args" e1 in
          Alcotest.check feq "parent" (float_of_int b) (num "parent" args);
          Alcotest.check feq "id" (float_of_int p) (num "id" args);
          Alcotest.check feq "pkt" 7.0 (num "pkt" args)
      | _ -> Alcotest.fail "expected two trace events")

(* --- JSON --- *)

let test_json () =
  let v =
    Jsonv.Obj
      [
        ("a", Jsonv.Num 0.1);
        ("b", Jsonv.Arr [ Jsonv.Num 3.0; Jsonv.Num (-2.5e-7); Jsonv.Bool false; Jsonv.Null ]);
        ("s", Jsonv.Str "tab\t \"quote\" \\ nl\n");
        ("x", Jsonv.Num 1234567.8912345);
      ]
  in
  let s = Jsonv.to_string v in
  Alcotest.(check bool) "round trip" true (Jsonv.of_string s = Ok v);
  Alcotest.(check string) "shortest digits" "0.1" (Jsonv.num_to_string 0.1);
  Alcotest.(check string) "integers plain" "3" (Jsonv.num_to_string 3.0);
  Alcotest.(check bool) "trailing garbage rejected" true (Result.is_error (Jsonv.of_string "{} x"))

(* --- Generators --- *)

let frames (w : Workload.t) seed n = List.map snd (Gen.batch (w.Workload.traffic ~seed) n)

let test_determinism () =
  List.iter
    (fun (w : Workload.t) ->
      let a = frames w 7 3000 and b = frames w 7 3000 and c = frames w 8 3000 in
      Alcotest.(check bool) (w.Workload.name ^ ": same seed, same bytes") true (List.for_all2 Bytes.equal a b);
      Alcotest.(check bool) (w.Workload.name ^ ": other seed, other stream") false (List.for_all2 Bytes.equal a c))
    Workload.all

let test_templates () =
  let rng = Random.State.make [| 42 |] in
  let fr = Gen.framer () in
  for _ = 1 to 500 do
    let t =
      {
        Gen.src = Random.State.bits rng land 0xffffffff;
        dst = Random.State.bits rng land 0xffffffff;
        sport = Random.State.int rng 65536;
        dport = Random.State.int rng 65536;
      }
    in
    let len = List.nth [ Gen.min_frame; 590; 1514 ] (Random.State.int rng 3) in
    Alcotest.(check bool) "patched template = Pkt.encode" true
      (Bytes.equal (Gen.frame fr ~len t) (Gen.encode ~len t))
  done

let test_clock_alloc () =
  let w0 = Gc.minor_words () in
  let acc = ref 0 in
  for _ = 1 to 1000 do
    acc := !acc lxor Clock.now_ns ()
  done;
  let w1 = Gc.minor_words () in
  ignore (Sys.opaque_identity !acc);
  Alcotest.(check (float 0.0)) "stamping allocates nothing" 0.0 (w1 -. w0)

(* --- BENCHMARK.json agrees with the catalogue --- *)

let test_benchmark_json () =
  let text = In_channel.with_open_bin benchmark_json In_channel.input_all in
  let j = match Jsonv.of_string text with Ok j -> j | Error e -> Alcotest.fail e in
  let arr k = match Jsonv.member k j with Some (Jsonv.Arr l) -> l | _ -> Alcotest.fail ("no " ^ k) in
  let str k o = match Jsonv.member k o with Some (Jsonv.Str s) -> s | _ -> Alcotest.fail ("no " ^ k) in
  let names l = List.map (str "name") l in
  Alcotest.(check (list string)) "workloads"
    (List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all)
    (names (arr "workloads"));
  let check_defs key defs =
    let l = arr key in
    Alcotest.(check (list string)) (key ^ " names") (List.map (fun (m : Metrics.def) -> m.Metrics.name) defs) (names l);
    List.iter2
      (fun (m : Metrics.def) o ->
        Alcotest.(check string) (m.Metrics.name ^ " unit") m.Metrics.unit (str "unit" o);
        Alcotest.(check string) (m.Metrics.name ^ " better")
          (match m.Metrics.better with Metrics.Lower -> "lower" | Metrics.Higher -> "higher")
          (str "better" o))
      defs l
  in
  check_defs "end_to_end" Metrics.end_to_end;
  check_defs "per_layer" Metrics.per_layer;
  let bound o = match Option.bind (Jsonv.member "bound" o) Jsonv.to_num with Some b -> b | None -> nan in
  let bounds = List.map (fun o -> (str "name" o, bound o)) (arr "end_to_end") in
  List.iter (fun (n, b) -> Alcotest.(check bool) (n ^ " bound in (0, 0.25]") true (b > 0.0 && b <= 0.25)) bounds;
  let setup = List.assoc "setup_s" bounds in
  Alcotest.(check bool) "setup_s has the largest bound" true
    (List.for_all (fun (n, b) -> n = "setup_s" || b < setup) bounds)

(* --- The correctness gate fails the run --- *)

let run_bench args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let code = match status with Unix.WEXITED c -> c | _ -> -1 in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  let last = match List.rev lines with l :: _ -> l | [] -> "" in
  (code, Jsonv.of_string last)

let correct_field = function
  | Ok j -> Jsonv.member "correct" j
  | Error e -> Alcotest.fail ("summary line does not parse: " ^ e)

let test_gate_passes () =
  let code, summary = run_bench [ "--smoke"; "--workload"; "fig2_mix" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "correct=true" true (correct_field summary = Some (Jsonv.Bool true));
  match summary with
  | Ok (Jsonv.Obj kv) ->
      Alcotest.(check (list string)) "summary keys" [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst kv);
      let metrics = match Jsonv.member "metrics" (Jsonv.Obj kv) with Some (Jsonv.Obj m) -> m | _ -> [] in
      Alcotest.(check (list string)) "every end-to-end metric"
        (List.map (fun (m : Metrics.def) -> m.Metrics.name) Metrics.end_to_end)
        (List.map fst metrics)
  | _ -> Alcotest.fail "summary is not an object"

let gate_fails workload tamper () =
  let code, summary = run_bench [ "--smoke"; "--workload"; workload; "--tamper"; tamper ] in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) "correct=false" true (correct_field summary = Some (Jsonv.Bool false))

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "highest percentile with 10 beyond" `Quick test_supported;
          Alcotest.test_case "quantiles as Python's" `Quick test_quantiles;
          Alcotest.test_case "sample buffer" `Quick test_buf;
          Alcotest.test_case "summary over runs" `Quick test_summarize;
        ] );
      ( "spans",
        [
          Alcotest.test_case "interval union" `Quick test_union;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "chrome trace parses back" `Quick test_chrome;
        ] );
      ("json", [ Alcotest.test_case "print and read" `Quick test_json ]);
      ( "generators",
        [
          Alcotest.test_case "seeded and deterministic" `Quick test_determinism;
          Alcotest.test_case "templates match Pkt.encode" `Quick test_templates;
          Alcotest.test_case "clock stamps do not allocate" `Quick test_clock_alloc;
        ] );
      ("catalogue", [ Alcotest.test_case "BENCHMARK.json matches" `Quick test_benchmark_json ]);
      ( "gate",
        [
          Alcotest.test_case "untampered run passes" `Quick test_gate_passes;
          Alcotest.test_case "tampered digest fails" `Quick (gate_fails "fig2_mix" "digest");
          Alcotest.test_case "flipped frame byte fails" `Quick (gate_fails "fig2_mix" "frame");
          Alcotest.test_case "ctrl digest mismatch fails" `Quick (gate_fails "fib_churn_x2" "ctrl");
        ] );
    ]
