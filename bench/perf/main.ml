(* The repo benchmark: seeded workloads through the data plane's public
   APIs, outputs checked, every metric printed by name with its unit.

     main.exe --workload fig2_mix --seed 1 --seconds 10 --trace 0

   The last line of standard output is a JSON summary; the exit code is
   0 only when every correctness check passed. See README.md. *)

open Perfbench

let usage =
  "main.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--list] [--smoke]\n\
   main.exe --summarize RUN_OUTPUT..."

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out = ref (Filename.concat "bench" (Filename.concat "perf" "out")) in
  let list = ref false and smoke = ref false and tamper = ref None in
  let summarize = ref false and files = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  one workload, or all (default)");
      ("--seed", Arg.Set_int seed, "N  workload seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S  timed-window scale: rounds per second times S (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  1 = traced run reporting per-layer metrics (default 0)");
      ("--out", Arg.Set_string out, "DIR  where results.json and trace files go (default bench/perf/out)");
      ("--list", Arg.Set list, " list the workloads and exit");
      ("--smoke", Arg.Set smoke, " every workload at 1/100 scale, checks on, no files written");
      ( "--tamper",
        Arg.Symbol
          ( [ "digest"; "frame"; "ctrl" ],
            fun s ->
              tamper :=
                Some
                  (match s with
                  | "digest" -> Bench.Digest
                  | "frame" -> Bench.Frame
                  | _ -> Bench.Ctrl_digest) ),
        " corrupt one observation to show the correctness gate fails the run" );
      ("--summarize", Arg.Set summarize, " median and quartiles per metric over saved run outputs");
    ]
  in
  Arg.parse spec (fun a -> files := a :: !files) usage;
  if !summarize then begin
    let last_line path =
      let lines = String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all) in
      match List.rev (List.filter (fun l -> String.trim l <> "") lines) with l :: _ -> l | [] -> ""
    in
    let summaries =
      List.map
        (fun path ->
          match Jsonv.of_string (last_line path) with
          | Ok j -> j
          | Error e ->
              Printf.eprintf "%s: no summary line (%s)\n" path e;
              exit 2)
        (List.rev !files)
    in
    Printf.printf "%-34s %4s %14s %14s %14s %9s\n" "metric" "n" "median" "q1" "q3" "iqr/med";
    List.iter
      (fun (name, n, med, q1, q3) ->
        Printf.printf "%-34s %4d %14.6g %14.6g %14.6g %9.4f\n" name n med q1 q3 ((q3 -. q1) /. med))
      (Report.summarize summaries);
    exit 0
  end;
  if !files <> [] then (prerr_endline ("unexpected argument " ^ List.hd !files); exit 2);
  if !list then begin
    List.iter (fun (w : Workload.t) -> Printf.printf "%-14s %s\n" w.Workload.name w.Workload.why) Workload.all;
    exit 0
  end;
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  if !seconds < 1 then (prerr_endline "--seconds must be at least 1"; exit 2);
  let trace = !trace = 1 and smoke = !smoke in
  let selected =
    if !workload = "all" then Workload.all
    else
      match Workload.find !workload with
      | Some w -> [ w ]
      | None ->
          Printf.eprintf "unknown workload %S (have: %s)\n" !workload
            (String.concat ", " (List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all));
          exit 2
  in
  let cpus = Domain.recommended_domain_count () in
  let header =
    [
      ("seed", Jsonv.Num (float_of_int !seed));
      ("seconds", Jsonv.Num (float_of_int !seconds));
      ("trace", Jsonv.Bool trace);
      ("smoke", Jsonv.Bool smoke);
      ("nproc", Jsonv.Num (float_of_int cpus));
      ("recommended_domain_count", Jsonv.Num (float_of_int cpus));
      ("ocaml", Jsonv.Str Sys.ocaml_version);
      ("fib_prefixes", Jsonv.Num (float_of_int Deploy.fib_prefixes));
    ]
  in
  Printf.printf "# perfbench %s\n%!"
    (String.concat " "
       (List.map (fun (k, v) -> k ^ "=" ^ Jsonv.to_string v) header));
  let runs =
    List.map
      (fun (w : Workload.t) ->
        let z = Workload.sizes ~smoke ~seconds:!seconds ~trace w in
        Printf.printf
          "# %s: warmup=%d rounds, timed=%d rounds, %d pkts/round, %d ops/round, check=%d rounds, setups=%d (%d discarded), engine domains=%d\n%!"
          w.Workload.name z.Workload.warmup z.Workload.timed w.Workload.batch w.Workload.ops_per_round
          z.Workload.check_rounds z.Workload.setups z.Workload.discarded
          w.Workload.engine.Dejavu_core.Runtime.Engine.domains;
        let r = Bench.run ?tamper:!tamper ~seed:!seed ~seconds:!seconds ~trace ~smoke w in
        List.iter
          (fun (c, ok) -> Printf.printf "# %s check %s: %s\n" w.Workload.name (if ok then "ok" else "FAILED") c)
          r.Bench.checks;
        List.iter
          (fun (m : Metrics.def) ->
            match List.assoc_opt m.Metrics.name r.Bench.values with
            | Some x -> print_endline (Report.line w.Workload.name m.Metrics.name x m.Metrics.unit)
            | None -> ())
          (Report.wanted ~trace);
        List.iter (fun (n, x, u) -> print_endline (Report.line w.Workload.name n x u)) r.Bench.extras;
        flush stdout;
        (w, z, r))
      selected
  in
  List.iter
    (fun ((w : Workload.t), _, r) ->
      match Report.missing ~trace r with
      | [] -> ()
      | names ->
          Printf.eprintf "%s: no value for %s\n" w.Workload.name (String.concat ", " names);
          exit 2)
    runs;
  if not smoke then begin
    mkdir_p !out;
    write_file (Filename.concat !out "results.json") (fun oc ->
        output_string oc
          (Jsonv.to_string
             (Report.results ~header (List.map (fun ((w : Workload.t), z, r) -> (w.Workload.name, z, r)) runs)));
        output_char oc '\n');
    List.iter
      (fun ((w : Workload.t), _, (r : Bench.result)) ->
        Option.iter
          (fun sp ->
            let path = Filename.concat !out ("trace-" ^ w.Workload.name ^ ".json") in
            write_file path (Span.write_chrome ~limit:50_000 sp);
            Printf.printf "# wrote %s\n" path)
          r.Bench.spans)
      runs
  end;
  let summary = Report.summary ~trace (List.map (fun ((w : Workload.t), _, r) -> (w.Workload.name, r)) runs) in
  print_endline (Jsonv.to_string summary);
  exit (if List.for_all (fun (_, _, (r : Bench.result)) -> r.Bench.correct) runs then 0 else 1)
