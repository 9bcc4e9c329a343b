(* What a run prints and writes: one [workload metric value unit] line
   per metric, results.json, and the one-line JSON summary that ends
   standard output. *)

let line workload name value unit =
  Printf.sprintf "%s %s %s %s" workload name (Jsonv.num_to_string value) unit

(* The catalogue metrics a run must report: end-to-end untraced,
   per-layer traced. *)
let wanted ~trace = if trace then Metrics.per_layer else Metrics.end_to_end

(* Names the run failed to report as finite numbers. *)
let missing ~trace (r : Bench.result) =
  List.filter_map
    (fun (m : Metrics.def) ->
      match List.assoc_opt m.Metrics.name r.Bench.values with
      | Some x when Float.is_finite x -> None
      | _ -> Some m.Metrics.name)
    (wanted ~trace)

let metric_obj ~trace ?(prefix = "") (r : Bench.result) =
  List.map
    (fun (m : Metrics.def) ->
      ( prefix ^ m.Metrics.name,
        Jsonv.Obj
          [
            ("value", Jsonv.Num (List.assoc m.Metrics.name r.Bench.values));
            ("unit", Jsonv.Str m.Metrics.unit);
          ] ))
    (wanted ~trace)

(* The summary line. A single workload's metrics go under their own
   names; several workloads prefix each with ["<workload>."]. *)
let summary ~trace (runs : (string * Bench.result) list) =
  let single = List.length runs = 1 in
  Jsonv.Obj
    [
      ("correct", Jsonv.Bool (List.for_all (fun (_, r) -> r.Bench.correct) runs));
      ("attempted", Jsonv.Num (float_of_int (List.fold_left (fun a (_, r) -> a + r.Bench.attempted) 0 runs)));
      ("failed", Jsonv.Num (float_of_int (List.fold_left (fun a (_, r) -> a + r.Bench.failed) 0 runs)));
      ( "metrics",
        Jsonv.Obj
          (List.concat_map
             (fun (name, r) -> metric_obj ~trace ~prefix:(if single then "" else name ^ ".") r)
             runs) );
    ]

let results ~header (runs : (string * Workload.sizes * Bench.result) list) =
  let num x = Jsonv.Num x and int n = Jsonv.Num (float_of_int n) in
  Jsonv.Obj
    [
      ("header", Jsonv.Obj header);
      ( "workloads",
        Jsonv.Obj
          (List.map
             (fun (name, (z : Workload.sizes), (r : Bench.result)) ->
               ( name,
                 Jsonv.Obj
                   [
                     ( "sizes",
                       Jsonv.Obj
                         [
                           ("warmup_rounds", int z.Workload.warmup);
                           ("timed_rounds", int z.Workload.timed);
                           ("check_rounds", int z.Workload.check_rounds);
                           ("setups", int z.Workload.setups);
                         ] );
                     ("correct", Jsonv.Bool r.Bench.correct);
                     ( "checks",
                       Jsonv.Arr
                         (List.map
                            (fun (c, ok) -> Jsonv.Obj [ ("check", Jsonv.Str c); ("ok", Jsonv.Bool ok) ])
                            r.Bench.checks) );
                     ("attempted", int r.Bench.attempted);
                     ("failed", int r.Bench.failed);
                     ( "metrics",
                       Jsonv.Obj
                         (List.map
                            (fun (n, x) ->
                              let unit =
                                match Metrics.find n with Some m -> m.Metrics.unit | None -> ""
                              in
                              (n, Jsonv.Obj [ ("value", num x); ("unit", Jsonv.Str unit) ]))
                            r.Bench.values) );
                     ( "extras",
                       Jsonv.Obj
                         (List.map
                            (fun (n, x, u) -> (n, Jsonv.Obj [ ("value", num x); ("unit", Jsonv.Str u) ]))
                            r.Bench.extras) );
                   ] ))
             runs) );
    ]

(* Median and quartiles of each metric over several runs, from each
   run's summary line — how two sets of runs (a parent and a change) are
   compared. Python's [statistics.quantiles] cut points. *)
let summarize (summaries : Jsonv.t list) =
  let table = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      match Jsonv.member "metrics" s with
      | Some (Jsonv.Obj metrics) ->
          List.iter
            (fun (name, m) ->
              match Option.bind (Jsonv.member "value" m) Jsonv.to_num with
              | Some x ->
                  if not (Hashtbl.mem table name) then order := name :: !order;
                  Hashtbl.replace table name (x :: Option.value ~default:[] (Hashtbl.find_opt table name))
              | None -> ())
            metrics
      | _ -> ())
    summaries;
  List.rev_map
    (fun name ->
      let xs = Hashtbl.find table name in
      let q = Stats.quantiles ~n:4 xs in
      (name, List.length xs, Stats.median xs, List.nth q 0, List.nth q 2))
    !order
