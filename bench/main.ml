(* Reproduction harness: one section per table/figure of the paper's
   evaluation, plus the ablations from DESIGN.md and bechamel
   microbenchmarks of the library itself.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig8a   # one experiment

   Absolute numbers come from the calibrated chip model (DESIGN.md §2);
   the shapes are the claims under reproduction. *)

open Dejavu_core

let section title =
  Format.printf "@.==================================================@.";
  Format.printf "%s@." title;
  Format.printf "==================================================@."

let ip = Netpkt.Ip4.of_string_exn
let mac = Netpkt.Mac.of_string_exn
let spec = Asic.Spec.wedge_100b

(* ------------------------------------------------------------------ *)
(* E1 / Fig. 6: placement example, naive vs optimized                  *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  section "Fig. 6 - NF placement for the chain A-B-C-D-E-F (2 pipelines)";
  let ing p = { Asic.Pipelet.pipeline = p; kind = Asic.Pipelet.Ingress } in
  let eg p = { Asic.Pipelet.pipeline = p; kind = Asic.Pipelet.Egress } in
  let chain = [ "A"; "B"; "C"; "D"; "E"; "F" ] in
  let run name paper layout =
    match Traversal.solve spec layout ~entry_pipeline:0 ~exit_port:1 chain with
    | None -> Format.printf "%-12s unroutable@." name
    | Some p ->
        Format.printf "%-12s recirculations=%d  (paper: %s)@." name
          p.Traversal.recircs paper;
        Format.printf "             %a@." Traversal.pp_path p
  in
  run "fig6(a)" "3"
    [
      (ing 0, [ Layout.Seq [ "A"; "B" ] ]);
      (eg 0, [ Layout.Seq [ "C" ] ]);
      (ing 1, [ Layout.Seq [ "D" ] ]);
      (eg 1, [ Layout.Seq [ "E"; "F" ] ]);
    ];
  run "fig6(b)" "1"
    [
      (ing 0, [ Layout.Seq [ "A"; "B" ] ]);
      (eg 1, [ Layout.Seq [ "C" ] ]);
      (ing 1, [ Layout.Seq [ "D" ] ]);
      (eg 0, [ Layout.Seq [ "E"; "F" ] ]);
    ];
  (* And what our optimizer finds for the same workload. *)
  let input =
    {
      Placement.spec;
      resources_of = (fun _ -> { P4ir.Resources.zero with P4ir.Resources.stages = 1 });
      chains = [ Chain.make ~path_id:1 ~name:"af" ~nfs:chain ~exit_port:1 () ];
      entry_pipeline = 0;
      pinned = [];
      framework_stages_per_nf = 2;
      framework_stages_fixed = 1;
    }
  in
  match Placement.solve input Placement.Exhaustive with
  | Error e -> Format.printf "optimizer failed: %s@." e
  | Ok (layout, cost) ->
      Format.printf "optimizer    cost=%.2f with layout:@.%a@." cost Layout.pp layout

(* ------------------------------------------------------------------ *)
(* E2 / Fig. 7: the feedback-queue model                                *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  section "Fig. 7 / Sec. 4 - loopback feedback-queue model";
  let rates = Model.feedback_arrival_rates 2 in
  let total = Array.fold_left ( +. ) 0.0 rates in
  let x = rates.(0) /. total in
  Format.printf "x (first-pass share at saturated EB) = %.3fT   (paper: 0.62T)@." x;
  Format.printf "golden conjugate                      = %.3f@." Model.golden_x;
  Format.printf "2-recirc delivered                    = %.3fT  (paper: 0.38T)@."
    (Model.feedback_throughput 2);
  Format.printf "3-recirc delivered                    = %.3fT  (paper: 0.16T)@."
    (Model.feedback_throughput 3);
  Format.printf "@.Linear capacity split (m of n ports loopback):@.";
  Format.printf "%6s %10s %18s@." "m/n" "external" "1-recirc share";
  List.iter
    (fun m ->
      let s = Model.loopback_split ~n_ports:32 ~m_loopback:m in
      Format.printf "%3d/32 %9.2f%% %17.2f%%@." m
        (100.0 *. s.Model.external_fraction)
        (100.0 *. s.Model.single_recirc_fraction))
    [ 0; 4; 8; 16; 24 ]

(* ------------------------------------------------------------------ *)
(* E3 / Fig. 8a: throughput vs number of recirculations                *)
(* ------------------------------------------------------------------ *)

let fig8a () =
  section "Fig. 8(a) - effective throughput vs recirculations (100 Gbps in)";
  Format.printf "%8s %12s %12s %10s@." "recircs" "sim (Gbps)" "model (Gbps)"
    "paper";
  let paper = [ (1, "~100"); (2, "~38"); (3, "~16"); (4, "~7"); (5, "~3") ] in
  List.iter
    (fun (k, stats) ->
      let sim = 100.0 *. stats.Asic.Flowsim.throughput_fraction in
      let model = 100.0 *. Model.feedback_throughput k in
      Format.printf "%8d %12.1f %12.1f %10s@." k sim model
        (Option.value ~default:"-" (List.assoc_opt k paper)))
    (Asic.Flowsim.sweep [ 0; 1; 2; 3; 4; 5 ]);
  Format.printf
    "(shape check: super-linear decay; 1 recirc keeps line rate, 3 lose >2/3)@."

(* ------------------------------------------------------------------ *)
(* E4 / Fig. 8b: recirculation latency                                  *)
(* ------------------------------------------------------------------ *)

let fig8b () =
  section "Fig. 8(b) - recirculation latency";
  let p2p = Asic.Latency.port_to_port_ns spec in
  let on_chip = Asic.Latency.recirc_on_chip_ns spec in
  let off_chip = Asic.Latency.recirc_off_chip_ns spec ~cable_m:1.0 in
  Format.printf "port-to-port (idle buffers): %6.0f ns   (paper: ~650 ns)@." p2p;
  Format.printf "on-chip recirculation:       %6.0f ns   (paper: ~75 ns)@." on_chip;
  Format.printf "off-chip recirc (1 m DAC):   %6.0f ns   (paper: ~145 ns)@."
    off_chip;
  Format.printf "on-chip / port-to-port:      %6.1f%%   (paper: ~11.5%%)@."
    (100.0 *. on_chip /. p2p);
  Format.printf "off-chip / on-chip:          %6.2fx   (paper: ~2x)@."
    (off_chip /. on_chip);
  (* Measured on the chip walk itself. *)
  Format.printf "@.measured on the chip model:@.";
  let input = Nflib.Catalog.edge_cloud_input () in
  match Compiler.compile input with
  | Error e -> Format.printf "compile failed: %s@." e
  | Ok compiled ->
      let frame =
        Netpkt.Pkt.encode
          (Netpkt.Pkt.tcp_flow ~src_mac:(mac "02:00:00:00:00:01")
             ~dst_mac:(mac "02:00:00:00:00:02")
             {
               Netpkt.Flow.src = ip "203.0.113.7";
               dst = ip "10.0.3.50";
               proto = Netpkt.Ipv4.proto_tcp;
               src_port = 1234;
               dst_port = 443;
             })
      in
      (match Asic.Chip.inject compiled.Compiler.chip ~in_port:0 frame with
      | Ok r ->
          Format.printf "  green path (0 recirculations): %.0f ns@."
            r.Asic.Chip.latency_ns
      | Error e -> Format.printf "  error: %s@." e)

(* ------------------------------------------------------------------ *)
(* E5+E6 / Fig. 9 + Table 1: the 5-NF prototype and its overhead        *)
(* ------------------------------------------------------------------ *)

let compile_prototype ?(strategy = Placement.Exhaustive) () =
  Compiler.compile (Nflib.Catalog.edge_cloud_input ~strategy ())

let fig9 () =
  section "Fig. 9 - prototype placement (5 NFs, 2 pipelines, pipe 1 loopback)";
  match compile_prototype () with
  | Error e -> Format.printf "compile failed: %s@." e
  | Ok compiled ->
      Format.printf "%a@." Compiler.pp_summary compiled;
      let ports = Asic.Chip.ports compiled.Compiler.chip in
      Format.printf
        "capacity: %.0f Gbps external, every packet may recirculate once \
         (paper: 1.6 Tbps)@."
        (Asic.Port.external_capacity_fraction ports
        *. Asic.Spec.total_capacity_gbps spec);
      Format.printf "generic parser: %d vertices over %d header declarations@."
        (List.length compiled.Compiler.generic_parser.P4ir.Parser_graph.states)
        (List.length compiled.Compiler.generic_parser.P4ir.Parser_graph.decls)

let table1 () =
  section "Table 1 - Dejavu framework resource overhead on the chip";
  match compile_prototype () with
  | Error e -> Format.printf "compile failed: %s@." e
  | Ok compiled ->
      let rows = Compiler.framework_report compiled in
      let paper =
        [
          ("Stages", "20.8%"); ("Table IDs", "4.2%"); ("Gateways", "2%");
          ("Crossbars", "0.4%"); ("VLIWs", "1.5%"); ("SRAM", "0.2%");
          ("TCAM", "0%");
        ]
      in
      Format.printf "%-10s %8s %9s %8s %8s@." "Resource" "Used" "Capacity"
        "Ours" "Paper";
      List.iter
        (fun (r : Compiler.report_row) ->
          Format.printf "%-10s %8d %9d %7.1f%% %8s@." r.Compiler.resource
            r.Compiler.used r.Compiler.capacity r.Compiler.pct
            (Option.value ~default:"-" (List.assoc_opt r.Compiler.resource paper)))
        rows

(* ------------------------------------------------------------------ *)
(* E7: functional validation (PTF), as in Sec. 5                        *)
(* ------------------------------------------------------------------ *)

let validation () =
  section "Sec. 5 validation - PTF send/expect over every SFC path";
  match compile_prototype () with
  | Error e -> Format.printf "compile failed: %s@." e
  | Ok compiled ->
      let rt = Runtime.create compiled in
      Nflib.Catalog.attach_handlers rt compiled;
      let flow dst dst_port =
        Netpkt.Pkt.tcp_flow ~src_mac:(mac "02:00:00:00:00:01")
          ~dst_mac:(mac "02:00:00:00:00:02")
          {
            Netpkt.Flow.src = ip "203.0.113.77";
            dst;
            proto = Netpkt.Ipv4.proto_tcp;
            src_port = 50000;
            dst_port;
          }
      in
      let blocked =
        Netpkt.Pkt.tcp_flow ~src_mac:(mac "02:00:00:00:00:01")
          ~dst_mac:(mac "02:00:00:00:00:02")
          {
            Netpkt.Flow.src = ip "198.51.100.1";
            dst = Nflib.Catalog.tenant1_vip;
            proto = Netpkt.Ipv4.proto_tcp;
            src_port = 50000;
            dst_port = 80;
          }
      in
      let cases =
        [
          ( "red (classifier-fw-vgw-lb-router)",
            flow Nflib.Catalog.tenant1_vip 80,
            Ptf.Emitted_on 1 );
          ("orange (classifier-vgw-router)", flow (ip "10.0.2.9") 80, Ptf.Emitted_on 1);
          ("green (classifier-router)", flow (ip "10.0.3.9") 80, Ptf.Emitted_on 1);
          ("blocked source", blocked, Ptf.Dropped);
          ("unclassified", flow (ip "192.0.2.1") 80, Ptf.To_cpu);
        ]
      in
      List.iter
        (fun (name, pkt, expect) ->
          match Ptf.send_expect rt ~in_port:0 pkt ~expect () with
          | Ok o ->
              let c = o.Ptf.runtime.Runtime.counters in
              Format.printf "  [pass] %-36s (recircs=%d, cpu=%d, %.0f ns)@." name
                c.Runtime.Counters.recircs c.Runtime.Counters.cpu_round_trips
                c.Runtime.Counters.latency_ns
          | Error e -> Format.printf "  [FAIL] %-36s %s@." name e)
        cases

(* ------------------------------------------------------------------ *)
(* E8: the Sec. 1 motivation numbers                                    *)
(* ------------------------------------------------------------------ *)

let motivation () =
  section "Sec. 1 motivation - software cores vs one switch ASIC";
  let target = 1600.0 in
  Format.printf
    "chain capacity target: %.0f Gbps (the prototype's external rate)@." target;
  Format.printf "%28s %8s@." "software NF performance" "cores";
  List.iter
    (fun (label, per_core) ->
      Format.printf "%28s %8d@." label
        (Model.software_cores_needed ~target_gbps:target ~gbps_per_core:per_core))
    [
      ("5 Gbps/core (heavy NF)", 5.0);
      ("10 Gbps/core", 10.0);
      ("20 Gbps/core", 20.0);
    ];
  Format.printf "switch ASICs needed: 1  (paper: one or two orders of magnitude)@."

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let ablation_compose () =
  section "Ablation A1 - sequential vs parallel composition";
  let registry = Nflib.Catalog.registry () in
  let nf_of name = Nf.instantiate registry name in
  let generic_parser =
    match compile_prototype () with
    | Ok c -> c.Compiler.generic_parser
    | Error e -> failwith e
  in
  let id = { Asic.Pipelet.pipeline = 0; kind = Asic.Pipelet.Ingress } in
  List.iter
    (fun (name, layout) ->
      match Compose.build ~spec ~generic_parser ~id ~layout ~nf_of with
      | Error e -> Format.printf "%-24s error: %s@." name e
      | Ok b -> (
          match Asic.Pipelet.load spec id b.Compose.program with
          | Error e -> Format.printf "%-24s does not load: %s@." name e
          | Ok pl ->
              Format.printf "%-24s stages=%2d tables=%2d gateways=%d@." name
                (Asic.Pipelet.stages_used pl)
                (List.length b.Compose.program.P4ir.Program.tables)
                b.Compose.framework_gateways))
    [
      ("seq(fw, lb, router)", [ Layout.Seq [ "fw"; "lb"; "router" ] ]);
      ("par(fw | lb | router)", [ Layout.Par [ "fw"; "lb"; "router" ] ]);
    ];
  Format.printf
    "(seq costs stages but transitions are free; par shares stages but \
     branch changes need a resubmission/recirculation)@."

let ablation_placement () =
  section "Ablation A2 - placement strategies on the Fig. 2 policy";
  Format.printf "%-12s %10s %12s@." "strategy" "objective" "compile";
  List.iter
    (fun (name, strategy) ->
      let t0 = Unix.gettimeofday () in
      match compile_prototype ~strategy () with
      | Error e -> Format.printf "%-12s failed: %s@." name e
      | Ok compiled ->
          let dt = (Unix.gettimeofday () -. t0) *. 1000.0 in
          Format.printf "%-12s %10.3f %10.1fms@." name compiled.Compiler.objective
            dt)
    [
      ("naive", Placement.Naive);
      ("greedy", Placement.Greedy);
      ("anneal", Placement.default_anneal);
      ("exhaustive", Placement.Exhaustive);
    ]

let ablation_loopback () =
  section "Ablation A3 - loopback provisioning vs chain throughput";
  Format.printf "%12s %12s %14s %14s@." "loopback m" "external" "1-recirc Gbps"
    "2-recirc Gbps";
  List.iter
    (fun m ->
      let ports = Asic.Port.make spec in
      for i = 0 to m - 1 do
        Asic.Port.set_mode ports i Asic.Port.Loopback
      done;
      Format.printf "%9d/32 %11.0fG %14.1f %14.1f@." m
        (Asic.Port.external_capacity_fraction ports
        *. Asic.Spec.total_capacity_gbps spec)
        (Model.chain_throughput_gbps spec ports ~recircs:1)
        (Model.chain_throughput_gbps spec ports ~recircs:2))
    [ 4; 8; 12; 16; 20 ]

(* ------------------------------------------------------------------ *)
(* Sec. 7 extension: clusters of switch data planes                     *)
(* ------------------------------------------------------------------ *)

let ablation_cluster () =
  section "Sec. 7 extension - clusters of switch data planes";
  let chain = List.init 16 (fun i -> Printf.sprintf "N%02d" i) in
  let chains = [ Chain.make ~path_id:1 ~name:"big" ~nfs:chain ~exit_port:1 () ] in
  let resources_of _ = { P4ir.Resources.zero with P4ir.Resources.stages = 2 } in
  Format.printf "a 16-NF chain (2 MAU stages per NF) across cluster sizes:@.@.";
  Format.printf "%10s %10s %8s %8s %12s@." "switches" "placed?" "recircs"
    "hops" "latency";
  List.iter
    (fun n ->
      let c = Cluster.make ~spec ~n_switches:n () in
      match
        Cluster.place c ~resources_of ~chains ~exit_switch:(n - 1)
          ~exit_pipeline:0 ~pinned:[]
          (Cluster.Anneal { iterations = 1500; seed = 7 })
      with
      | Error _ -> Format.printf "%10d %10s %8s %8s %12s@." n "no" "-" "-" "-"
      | Ok (layout, _) -> (
          match
            Cluster.solve c layout ~entry_pipeline:0 ~exit_switch:(n - 1)
              ~exit_pipeline:0 chain
          with
          | None -> Format.printf "%10d %10s (unroutable)@." n "yes"
          | Some p ->
              Format.printf "%10d %10s %8d %8d %9.0f ns@." n "yes"
                p.Cluster.recircs p.Cluster.hops (Cluster.latency_ns c p)))
    [ 1; 2; 3; 4 ];
  Format.printf
    "@.(the paper's Sec. 7: chaining switches back-to-back multiplies MAU \
     stages; the off-chip hop is ~2x an on-chip recirculation in latency \
     but costs no recirculation bandwidth)@."

(* ------------------------------------------------------------------ *)
(* Sec. 6 related work: native merge vs Hyper4-style emulation          *)
(* ------------------------------------------------------------------ *)

let related_work () =
  section "Sec. 6 - code-level merge vs data-plane emulation (Hyper4/HyperV)";
  let registry = Nflib.Catalog.registry () in
  let nfs =
    List.filter_map
      (fun n -> Result.to_option (Nf.instantiate registry n))
      [ "classifier"; "fw"; "vgw"; "lb"; "router" ]
  in
  Format.printf "%-12s %18s %18s %10s@." "NF" "native (stages/TCAM)"
    "emulated" "factor";
  List.iter
    (fun nf ->
      let c = Baseline.compare_nf nf in
      let stage_factor =
        match List.assoc_opt "stages" (Baseline.overhead_factor c) with
        | Some f -> Printf.sprintf "%.1fx" f
        | None -> "-"
      in
      Format.printf "%-12s %11d / %-6d %11d / %-6d %8s@." c.Baseline.nf
        c.Baseline.native.P4ir.Resources.stages
        c.Baseline.native.P4ir.Resources.tcams
        c.Baseline.emulated.P4ir.Resources.stages
        c.Baseline.emulated.P4ir.Resources.tcams stage_factor)
    nfs;
  let total = Baseline.summary nfs in
  Format.printf "@.%a@." Baseline.pp_comparison total;
  Format.printf
    "@.(paper Sec. 6: emulation approaches need ~3-7x the resources of \
     native programs; Dejavu merges at the code level and avoids this)@."

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the library itself                       *)
(* ------------------------------------------------------------------ *)

let microbench () =
  section "Microbenchmarks (bechamel, monotonic clock)";
  let compiled = Result.get_ok (compile_prototype ()) in
  let frame =
    Netpkt.Pkt.encode
      (Netpkt.Pkt.tcp_flow ~src_mac:(mac "02:00:00:00:00:01")
         ~dst_mac:(mac "02:00:00:00:00:02")
         {
           Netpkt.Flow.src = ip "203.0.113.7";
           dst = ip "10.0.3.50";
           proto = Netpkt.Ipv4.proto_tcp;
           src_port = 1234;
           dst_port = 443;
         })
  in
  let parser = compiled.Compiler.generic_parser in
  let registry = Nflib.Catalog.registry () in
  let tests =
    [
      Bechamel.Test.make ~name:"chip walk (green path)"
        (Bechamel.Staged.stage (fun () ->
             ignore (Asic.Chip.inject compiled.Compiler.chip ~in_port:0 frame)));
      Bechamel.Test.make ~name:"generic parser parse"
        (Bechamel.Staged.stage (fun () ->
             let phv = P4ir.Phv.create [] in
             ignore (P4ir.Parser_graph.parse parser frame phv)));
      Bechamel.Test.make ~name:"parser merge (6 parsers)"
        (Bechamel.Staged.stage (fun () ->
             let nfs =
               List.filter_map
                 (fun (n, _) ->
                   Result.to_option
                     (Result.map
                        (fun nf -> nf.Nf.parser)
                        (Nf.instantiate registry n)))
                 (List.filteri (fun i _ -> i < 5) registry)
             in
             ignore
               (Parser_merge.merge ~name:"bench"
                  (Net_hdrs.base_parser ~with_vlan:true ~name:"fw" () :: nfs))));
      Bechamel.Test.make ~name:"end-to-end compile (Fig. 2 policy)"
        (Bechamel.Staged.stage (fun () -> ignore (compile_prototype ())));
      Bechamel.Test.make ~name:"sfc header encode+decode"
        (Bechamel.Staged.stage (fun () ->
             ignore
               (Sfc_header.decode (Sfc_header.encode Sfc_header.default) ~off:0)));
    ]
  in
  let run_one test =
    let open Bechamel in
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
    in
    let raw = Benchmark.all cfg [ instance ] test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    Analyze.all ols instance raw
  in
  List.iter
    (fun test ->
      let results = run_one test in
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> Format.printf "%-44s %12.0f ns/run@." name est
          | _ -> Format.printf "%-44s (no estimate)@." name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Placement solver benchmark: wall time and solution cost per solver   *)
(* and spec size, the three-way anneal head-to-head (incremental        *)
(* move-diff vs full rebuild vs reference oracle), and multi-domain     *)
(* parallel restarts. The results land in BENCH_placement.json so the   *)
(* perf trajectory is machine-readable across PRs.                      *)
(* ------------------------------------------------------------------ *)

(* --smoke (used by CI) shrinks the iteration count: still exercises
   every code path and the identity checks, without the full-length
   timing runs. *)
let smoke = ref false

(* --telemetry adds a third timed mode to the runtime benchmark (fast
   path with Counters instrumentation), prints the registry, and records
   the measured overhead in BENCH_runtime.json — which is then written
   even under --smoke, so CI can archive it. *)
let telemetry = ref false

(* --domains N adds a sharded section to the runtime benchmark: the same
   workload through Runtime.process_batch_parallel for each domain count
   in {1, 2, 4, ..., N}, with per-packet equivalence against the
   sequential run enforced (CI runs --smoke --domains 2). *)
let bench_domains = ref 1

(* --cache adds the exact-match flow-cache section to the runtime
   benchmark: Zipf-skewed flow mixes through the uncached fast path and
   through Engine.Emc, gated on byte-identical outputs, with hit rate
   and ns/pkt per mix recorded in BENCH_runtime.json (CI runs
   --smoke --cache). *)
let bench_cache = ref false

(* --churn adds the live-control-plane section to the runtime benchmark:
   a 10k-op BGP-style trace (FIB add/mod/del + ACL toggles) replayed
   through Runtime.apply_ops on a running sharded engine with the flow
   cache on, op batches interleaved with traffic batches. Reports update
   throughput and the forwarding-rate dip vs a churn-free baseline, and
   gates (exit 1) on the live-applied final state digest matching a
   cold-built runtime's (CI runs --smoke --churn). *)
let bench_churn = ref false

(* --state adds the bounded-state-store section to the runtime
   benchmark, in three gated phases: (1) under-capacity equivalence —
   the mixed workload through Engine.Bounded must be byte-identical to
   No_state; (2) scale — a large population of distinct flows (1M+
   full, 20k smoke) through a classifier->lb->nat->router chain whose
   LB sessions and NAT bindings both live on the store, gating ledger
   occupancy == min(flows, capacity), chip table size <= capacity, and
   a flat-memory ceiling (live heap words after saturation must not
   grow); (3) live re-shard 2 -> 4 -> 1 under traffic, whose migrated
   store union must digest-identical a cold-built runtime's. All three
   exit 1 on breach (CI runs --smoke --state --state-capacity 4096). *)
let bench_state = ref false

(* --state-capacity N sets the per-shard store capacity for the --state
   section (default 65536, the chip session table's max_size — larger
   values are clamped to it so the ledger, not the chip, is the
   bound). *)
let bench_state_capacity = ref 65536

(* --ttl NS sets the store's TTL in logical nanoseconds for the --state
   section (default 0 = no aging; the scale phase never advances the
   clock, so TTL only changes bookkeeping there). *)
let bench_state_ttl = ref 0L

let bench_placement () =
  section "Placement solver benchmark -> BENCH_placement.json";
  let anneal_iterations = if !smoke then 400 else 4000 in
  let specs =
    [
      Asic.Spec.wedge_100b;
      Asic.Spec.tofino_4pipe;
      { Asic.Spec.tofino_4pipe with Asic.Spec.name = "tofino-8pipe"; n_pipelines = 8 };
    ]
  in
  let nfs = [ "A"; "B"; "C"; "D"; "E"; "F" ] in
  let chains =
    [
      Chain.make ~path_id:1 ~name:"full" ~nfs ~weight:0.5 ~exit_port:1 ();
      Chain.make ~path_id:2 ~name:"odd" ~nfs:[ "A"; "C"; "E" ] ~weight:0.3
        ~exit_port:17 ();
      Chain.make ~path_id:3 ~name:"even" ~nfs:[ "B"; "D"; "F" ] ~weight:0.2
        ~exit_port:1 ();
    ]
  in
  let input_of spec =
    {
      Placement.spec;
      resources_of =
        (fun _ -> { P4ir.Resources.zero with P4ir.Resources.stages = 1 });
      chains;
      entry_pipeline = 0;
      pinned = [];
      framework_stages_per_nf = 2;
      framework_stages_fixed = 1;
    }
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let anneal =
    Placement.Anneal { iterations = anneal_iterations; seed = 1; initial_temp = 2.0 }
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"benchmark\": \"placement\",\n  \"anneal_iterations\": %d,\n  \"specs\": [\n"
       anneal_iterations);
  List.iteri
    (fun si spec ->
      let input = input_of spec in
      Format.printf "@.%s (%d pipelines)@." spec.Asic.Spec.name
        spec.Asic.Spec.n_pipelines;
      Format.printf "%-12s %12s %10s@." "solver" "wall (ms)" "cost";
      let solvers =
        [ ("naive", Placement.Naive); ("greedy", Placement.Greedy); ("anneal", anneal) ]
        @ (if spec.Asic.Spec.n_pipelines <= 2 then
             [ ("exhaustive", Placement.Exhaustive) ]
           else [])
      in
      let rows =
        List.filter_map
          (fun (name, strategy) ->
            let dt, result = time (fun () -> Placement.solve input strategy) in
            match result with
            | Error e ->
                Format.printf "%-12s failed: %s@." name e;
                None
            | Ok (_, cost) ->
                Format.printf "%-12s %12.2f %10.3f@." name (dt *. 1000.0) cost;
                Some (name, dt, cost))
          solvers
      in
      (* Three-way anneal head-to-head: incremental move-diff (the
         production path), full rebuild with the memoized fast scorer
         (PR-1's path, now the oracle baseline) and full rebuild with
         the uncached reference scorer. Min of 3 runs each: all three
         are deterministic, so run-to-run wall-time spread is
         scheduler/GC noise and the minimum is the cleanest estimate. *)
      let time_min3 f =
        let t1, r = time f in
        let t2, _ = time f in
        let t3, _ = time f in
        (min t1 (min t2 t3), r)
      in
      let incr_s, incremental =
        time_min3 (fun () -> Placement.solve input anneal)
      in
      let fast_s, fast =
        time_min3 (fun () -> Placement.solve_rebuild input anneal)
      in
      let ref_s, reference =
        time_min3 (fun () ->
            Placement.solve_rebuild ~scorer:Placement.Reference input anneal)
      in
      let same a b =
        match (a, b) with
        | Ok (la, ca), Ok (lb, cb) -> la = lb && abs_float (ca -. cb) < 1e-9
        | Error _, Error _ -> true
        | _ -> false
      in
      let costs_equal = same incremental fast && same incremental reference in
      let speedup = if fast_s > 0.0 then ref_s /. fast_s else 0.0 in
      let incr_speedup = if incr_s > 0.0 then fast_s /. incr_s else 0.0 in
      Format.printf
        "anneal incremental=%.2fms rebuild-fast=%.2fms reference=%.2fms \
         incr-speedup=%.1fx fast-speedup=%.1fx identical=%b@."
        (incr_s *. 1000.0) (fast_s *. 1000.0) (ref_s *. 1000.0) incr_speedup
        speedup costs_equal;
      (* Parallel restarts: the full seed sweep on a 4-domain pool. *)
      let restart_domains = 4 in
      let restart_seeds = [ 1; 2; 3; 4; 5; 6 ] in
      let par_s, par =
        time (fun () ->
            Placement.solve_parallel ~iterations:anneal_iterations
              ~domains:restart_domains ~seeds:restart_seeds input)
      in
      let restarts_json =
        match par with
        | Error e ->
            Format.printf "restarts failed: %s@." e;
            Printf.sprintf
              "      \"restarts\": { \"domains\": %d, \"error\": %S }\n"
              restart_domains e
        | Ok p ->
            Format.printf "restarts (%d seeds, %d domains): best=%.3f in %.2fms@."
              (List.length restart_seeds) restart_domains p.Placement.cost
              (par_s *. 1000.0);
            Printf.sprintf
              "      \"restarts\": {\n\
              \        \"domains\": %d,\n\
              \        \"wall_s\": %.6f,\n\
              \        \"best_cost\": %.6f,\n\
              \        \"per_seed\": [\n%s\n\
              \        ]\n\
              \      }\n"
              restart_domains par_s p.Placement.cost
              (String.concat ",\n"
                 (List.map
                    (fun (r : Placement.restart) ->
                      match r.Placement.cost with
                      | Some c ->
                          Printf.sprintf
                            "          { \"seed\": %d, \"cost\": %.6f }"
                            r.Placement.seed c
                      | None ->
                          Printf.sprintf
                            "          { \"seed\": %d, \"cost\": null }"
                            r.Placement.seed)
                    p.Placement.restarts))
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\n      \"spec\": %S,\n      \"n_pipelines\": %d,\n      \"solvers\": [\n%s\n      ],\n      \"anneal_incremental_s\": %.6f,\n      \"anneal_fast_s\": %.6f,\n      \"anneal_reference_s\": %.6f,\n      \"anneal_speedup\": %.2f,\n      \"anneal_incremental_speedup\": %.2f,\n      \"anneal_results_identical\": %b,\n%s    }%s\n"
           spec.Asic.Spec.name spec.Asic.Spec.n_pipelines
           (String.concat ",\n"
              (List.map
                 (fun (name, dt, cost) ->
                   Printf.sprintf
                     "        { \"solver\": %S, \"wall_s\": %.6f, \"cost\": %.6f }"
                     name dt cost)
                 rows))
           incr_s fast_s ref_s speedup incr_speedup costs_equal restarts_json
           (if si < List.length specs - 1 then "," else "")))
    specs;
  Buffer.add_string buf "  ]\n}\n";
  if !smoke then Format.printf "@.--smoke: skipped writing BENCH_placement.json@."
  else begin
    let oc = open_out "BENCH_placement.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Format.printf "@.wrote BENCH_placement.json@."
  end

(* ------------------------------------------------------------------ *)
(* Data-plane throughput benchmark: the same packet workload through    *)
(* the precompiled fast path and the statement-tree reference           *)
(* interpreter, with the batch digest proving both produced             *)
(* byte-identical outputs. Results land in BENCH_runtime.json.          *)
(* ------------------------------------------------------------------ *)

let bench_runtime () =
  section "Runtime throughput benchmark -> BENCH_runtime.json";
  let npkts = if !smoke then 200 else 4000 in
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
  in
  (* Mixed workload over the Fig. 2 policy: green (classifier-router),
     orange (classifier-vgw-router) and red (the full 5-NF chain through
     the LB, which punts each new flow to the CPU and installs a
     connection entry — so the batch also exercises table growth and the
     CPU round-trip path). *)
  let workload =
    List.init npkts (fun i ->
        let frame =
          match i mod 4 with
          | 0 ->
              flow ~src:"203.0.113.7"
                ~dst:(ip (Printf.sprintf "10.0.3.%d" (1 + (i mod 200))))
                ~src_port:(40000 + (i mod 97)) ~dst_port:443
          | 1 ->
              flow ~src:"203.0.113.8"
                ~dst:(ip (Printf.sprintf "10.0.2.%d" (1 + (i mod 200))))
                ~src_port:(41000 + (i mod 89)) ~dst_port:80
          | 2 ->
              flow ~src:"203.0.113.9" ~dst:Nflib.Catalog.tenant1_vip
                ~src_port:(50000 + (i mod 61)) ~dst_port:80
          | _ ->
              flow ~src:"203.0.113.10" ~dst:(ip "10.0.3.50")
                ~src_port:(42000 + (i mod 127)) ~dst_port:8080
        in
        (0, frame))
  in
  (* The LB handler installs entries statefully, so every timed run gets
     a freshly compiled chip + runtime; min of [runs] for the cleanest
     wall-time estimate. *)
  (* A realistic FIB: 512 /24s + 32 /20s in 172.16.0.0/12, none covering
     the workload's 10.0.0.0/16 destinations — outputs are unchanged, but
     the router lookup runs at production table scale (the reference
     interpreter scans every prefix per packet; the indexed path probes
     one bucket per prefix length). Installed identically in both modes
     before the clock starts. *)
  let fib_extra = 512 + 32 in
  let fib_entry ~prefix_len addr =
    {
      P4ir.Table.priority = 0;
      patterns =
        [
          P4ir.Table.M_lpm
            { value = P4ir.Bitval.of_int ~width:32 addr; prefix_len };
        ];
      action = "route";
      args =
        [
          P4ir.Bitval.of_int ~width:48 0x020000aa0001;
          P4ir.Bitval.of_int ~width:48 0x0200000000fe;
        ];
    }
  in
  let fib_ops =
    let entries =
      List.init 512 (fun i ->
          fib_entry ~prefix_len:24
            ((172 lsl 24)
            lor ((16 + (i lsr 8)) lsl 16)
            lor ((i land 0xff) lsl 8)))
      @ List.init 32 (fun i ->
            fib_entry ~prefix_len:20
              ((172 lsl 24)
              lor ((24 + (i lsr 4)) lsl 16)
              lor ((i land 0xf) lsl 12)))
    in
    List.map
      (fun e -> Ctrl.Table (Nflib.Catalog.routes_table_name, Ctrl.Add e))
      entries
  in
  (* Installed through the typed-op front door — the same path the churn
     trace takes at runtime. *)
  let install_fib compiled =
    match Ctrl.apply_all compiled.Compiler.chip fib_ops with
    | Ok _ -> ()
    | Error e -> failwith ("bench runtime: FIB install failed: " ^ e)
  in
  let engine_for ?(domains = 1) mode =
    { Runtime.Engine.default with Runtime.Engine.exec_mode = mode; domains }
  in
  let run_mode mode =
    let compiled =
      match compile_prototype () with Ok c -> c | Error e -> failwith e
    in
    let rt = Runtime.create ~engine:(engine_for mode) compiled in
    Nflib.Catalog.attach_handlers rt compiled;
    install_fib compiled;
    (* Settle the set-up's garbage first, so its major-GC work is not
       charged to the batch. *)
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let stats = Runtime.process_batch rt workload in
    (Unix.gettimeofday () -. t0, stats)
  in
  (* Min of 7: a fast-path batch takes ~20 ms, short enough for this
     host's drift to carry a min of 3 past the 10% domains:1 band. *)
  let runs = if !smoke then 1 else 7 in
  let time_mode mode =
    let results = List.init runs (fun _ -> run_mode mode) in
    let stats = snd (List.hd results) in
    (List.fold_left (fun acc (dt, _) -> min acc dt) infinity results, stats)
  in
  let fast_s, fast = time_mode Asic.Chip.Fast in
  let ref_s, refr = time_mode Asic.Chip.Reference in
  let fast_c = fast.Runtime.counters and refr_c = refr.Runtime.counters in
  let identical =
    fast.Runtime.digest = refr.Runtime.digest
    && fast.Runtime.emitted = refr.Runtime.emitted
    && fast.Runtime.dropped = refr.Runtime.dropped
    && fast.Runtime.to_cpu = refr.Runtime.to_cpu
    && fast.Runtime.errors = refr.Runtime.errors
    && fast_c.Runtime.Counters.cpu_round_trips
       = refr_c.Runtime.Counters.cpu_round_trips
    && fast_c.Runtime.Counters.recircs = refr_c.Runtime.Counters.recircs
    && fast_c.Runtime.Counters.resubmits = refr_c.Runtime.Counters.resubmits
  in
  (* Spot-check trace-event equality on one chip walk per mode (the
     QCheck suite does this exhaustively on random programs). *)
  let traces_equal =
    let walk mode =
      let compiled =
        match compile_prototype () with Ok c -> c | Error e -> failwith e
      in
      install_fib compiled;
      Asic.Chip.set_exec_mode compiled.Compiler.chip mode;
      (* Only the journey recorder's level records the trace. *)
      Asic.Chip.set_telemetry compiled.Compiler.chip Telemetry.Level.Journeys;
      match Asic.Chip.inject compiled.Compiler.chip ~in_port:0 (snd (List.hd workload)) with
      | Ok r -> r.Asic.Chip.trace
      | Error e -> failwith e
    in
    walk Asic.Chip.Fast = walk Asic.Chip.Reference
  in
  let rate dt = float_of_int npkts /. dt in
  let ns_per_pkt dt = dt *. 1e9 /. float_of_int npkts in
  let speedup = if fast_s > 0.0 then ref_s /. fast_s else 0.0 in
  (* On divergence: rerun both modes in lockstep with the flight
     recorder on, find the first packet whose outcome differs, and dump
     its journey through each mode (divergence.json) plus the raw frame
     (divergence.pcap) for offline replay. *)
  let dump_divergence () =
    let mk mode =
      let compiled =
        match compile_prototype () with Ok c -> c | Error e -> failwith e
      in
      let rt = Runtime.create ~engine:(engine_for mode) compiled in
      Nflib.Catalog.attach_handlers rt compiled;
      install_fib compiled;
      Runtime.set_telemetry ~ring_capacity:4 rt Telemetry.Level.Journeys;
      rt
    in
    let frt = mk Asic.Chip.Fast and rrt = mk Asic.Chip.Reference in
    let signature rt (in_port, frame) =
      match Runtime.process rt ~in_port frame with
      | Error e -> "error:" ^ e
      | Ok o -> (
          match o.Runtime.verdict with
          | Asic.Chip.Emitted { port; frame } ->
              Printf.sprintf "emitted:%d:%s" port
                (Digest.to_hex (Digest.bytes frame))
          | Asic.Chip.Dropped -> "dropped"
          | Asic.Chip.To_cpu b ->
              "to_cpu:" ^ Digest.to_hex (Digest.bytes b))
    in
    let offender =
      List.find_mapi
        (fun i pkt ->
          let fs = signature frt pkt and rs = signature rrt pkt in
          if String.equal fs rs then None else Some (i, pkt, fs, rs))
        workload
    in
    match offender with
    | None ->
        Format.printf
          "divergence did not reproduce in lockstep replay (stateful \
           interleaving?) - no dump written@."
    | Some (i, (in_port, frame), fs, rs) ->
        let last_journey rt =
          match Runtime.telemetry rt with
          | None -> "null"
          | Some o -> (
              match Telemetry.Ring.last (Observe.ring o) with
              | None -> "null"
              | Some j -> Telemetry.Journey.to_json ~indent:2 j)
        in
        let oc = open_out "divergence.json" in
        Printf.fprintf oc
          "{\n\
          \  \"packet_index\": %d,\n\
          \  \"in_port\": %d,\n\
          \  \"fast_outcome\": %S,\n\
          \  \"reference_outcome\": %S,\n\
          \  \"fast_journey\": %s,\n\
          \  \"reference_journey\": %s\n\
           }\n"
          i in_port fs rs (last_journey frt) (last_journey rrt);
        close_out oc;
        Netpkt.Pcap.write_file "divergence.pcap"
          [ Netpkt.Pcap.packet ~ts_sec:0 ~ts_usec:i frame ];
        Format.printf
          "wrote divergence.json + divergence.pcap (packet %d, fast=%s \
           reference=%s)@."
          i fs rs
  in
  (* The Counters-overhead measurement: fast path with and without
     Counters instrumentation. The two are interleaved (fast, counters,
     fast, counters, ...) and each side takes its min, so a slow window
     on a noisy machine hits both sides instead of biasing whichever
     phase ran second. *)
  let run_counters () =
    let compiled =
      match compile_prototype () with Ok c -> c | Error e -> failwith e
    in
    let rt = Runtime.create compiled in
    Nflib.Catalog.attach_handlers rt compiled;
    install_fib compiled;
    Runtime.set_telemetry rt Telemetry.Level.Counters;
    let t0 = Unix.gettimeofday () in
    let stats = Runtime.process_batch rt workload in
    (Unix.gettimeofday () -. t0, stats, rt)
  in
  let measure_overhead () =
    begin
      let pairs =
        List.init 5 (fun _ -> (run_mode Asic.Chip.Fast, run_counters ()))
      in
      let tele_s =
        List.fold_left
          (fun acc (_, (dt, _, _)) -> min acc dt)
          infinity pairs
      in
      let _, (_, tele_stats, tele_rt) = List.hd pairs in
      let base_s =
        List.fold_left
          (fun acc ((dt, _), _) -> min acc dt)
          fast_s pairs
      in
      let pct = 100.0 *. (tele_s -. base_s) /. base_s in
      let same_outputs = tele_stats.Runtime.digest = fast.Runtime.digest in
      Format.printf
        "%-12s %12.2f %14.0f %12.0f@." "counters" (tele_s *. 1000.0)
        (rate tele_s) (ns_per_pkt tele_s);
      Format.printf
        "counters overhead vs fast: %+.1f%% (budget 5%%), outputs identical=%b@."
        pct same_outputs;
      (match Runtime.telemetry tele_rt with
      | None -> ()
      | Some o ->
          Format.printf "@.telemetry registry after the counters run:@.";
          Format.printf "%t@." (fun ppf -> Observe.pp ppf o (Runtime.chip tele_rt));
          Format.printf "@.as JSON:@.%s@."
            (Observe.json ~indent:2 o (Runtime.chip tele_rt)));
      if not same_outputs then begin
        Format.printf "ERROR: Counters telemetry changed batch outputs!@.";
        exit 1
      end;
      Some (tele_s, base_s, pct)
    end
  in
  Format.printf
    "%d packets (%d green/orange, %d red via LB + CPU), %d-prefix FIB, min of \
     %d runs@."
    npkts (fast.Runtime.packets - (npkts / 4)) (npkts / 4) (fib_extra + 2) runs;
  Format.printf "%-12s %12s %14s %12s@." "mode" "wall (ms)" "pkts/sec" "ns/pkt";
  Format.printf "%-12s %12.2f %14.0f %12.0f@." "fast" (fast_s *. 1000.0)
    (rate fast_s) (ns_per_pkt fast_s);
  Format.printf "%-12s %12.2f %14.0f %12.0f@." "reference" (ref_s *. 1000.0)
    (rate ref_s) (ns_per_pkt ref_s);
  let overhead = if !telemetry then measure_overhead () else None in
  Format.printf
    "speedup=%.1fx identical=%b traces_equal=%b (emitted=%d dropped=%d \
     to_cpu=%d cpu_round_trips=%d recircs=%d digest=%Lx)@."
    speedup identical traces_equal fast.Runtime.emitted fast.Runtime.dropped
    fast.Runtime.to_cpu fast_c.Runtime.Counters.cpu_round_trips
    fast_c.Runtime.Counters.recircs fast.Runtime.digest;
  if not (identical && traces_equal) then begin
    Format.printf "ERROR: fast and reference paths disagree!@.";
    dump_divergence ();
    exit 1
  end;
  if fast.Runtime.error_log <> [] then begin
    Format.printf "first batch errors:@.";
    List.iter
      (fun (port, msg) -> Format.printf "  in_port=%d %s@." port msg)
      fast.Runtime.error_log;
    if fast.Runtime.suppressed > 0 then
      Format.printf "  ... and %d more suppressed (first %d kept)@."
        fast.Runtime.suppressed
        (List.length fast.Runtime.error_log)
  end;
  (* Allocation accounting: total Gc words (minor + major - promoted)
     allocated per packet, per engine config, over an untimed
     steady-state pass. The warm pass absorbs compulsory first-flow work
     (LB punts install connection entries, the EMC fills), so the
     measured pass is the pure data-plane allocation rate. Words rather
     than bytes: stable across word sizes; allocation counts are
     deterministic, so one measured pass suffices. Sequential configs
     only — Gc.quick_stat is per-domain under OCaml 5, so a sharded
     run's worker allocations would be invisible here. *)
  (* Measured with OCaml 5.1.1: 317.2 w/pkt at --smoke scale (200 pkts)
     and 317.0 at full scale (4000 pkts), since field values are
     immediate ints in the PHV's cells (boxed values took ~3800). The
     budget is the measurement plus 20%. *)
  let alloc_budget_words = 381.0 in
  let alloc_results =
    let e = engine_for Asic.Chip.Fast in
    let configs =
      [
        ("fast/off", e);
        ( "fast/counters",
          { e with Runtime.Engine.telemetry = Telemetry.Level.Counters } );
        ( "fast/journeys",
          { e with Runtime.Engine.telemetry = Telemetry.Level.Journeys } );
        ("reference/off", engine_for Asic.Chip.Reference);
        ( "fast/emc",
          { e with Runtime.Engine.cache = Runtime.Engine.Emc { capacity = 65536 } }
        );
      ]
    in
    Format.printf
      "@.allocations per packet (Gc words, steady-state pass of %d pkts):@."
      npkts;
    Format.printf "%-16s %12s %12s %12s@." "config" "minor w/pkt" "major w/pkt"
      "total w/pkt";
    List.map
      (fun (name, engine) ->
        let compiled =
          match compile_prototype () with Ok c -> c | Error e -> failwith e
        in
        let rt = Runtime.create ~engine compiled in
        Nflib.Catalog.attach_handlers rt compiled;
        install_fib compiled;
        ignore (Runtime.process_batch rt workload);
        Gc.full_major ();
        (* [Gc.minor_words] counts the current minor heap too;
           [quick_stat]'s minor count only moves at minor collections. *)
        let s0 = Gc.quick_stat () and m0 = Gc.minor_words () in
        ignore (Runtime.process_batch rt workload);
        let m1 = Gc.minor_words () and s1 = Gc.quick_stat () in
        let per w = w /. float_of_int npkts in
        let minor = per (m1 -. m0) in
        let major =
          per
            (s1.Gc.major_words -. s1.Gc.promoted_words
            -. (s0.Gc.major_words -. s0.Gc.promoted_words))
        in
        Format.printf "%-16s %12.1f %12.1f %12.1f@." name minor major
          (minor +. major);
        (name, minor, major, minor +. major))
      configs
  in
  let fast_alloc_total =
    match List.find_opt (fun (n, _, _, _) -> n = "fast/off") alloc_results with
    | Some (_, _, _, total) -> total
    | None -> 0.0
  in
  Format.printf "fast/off budget: %.0f w/pkt (measured %.1f)@."
    alloc_budget_words fast_alloc_total;
  (* --domains: the same workload sharded over k worker domains (each
     one a private chip replica), gated on per-packet equivalence with
     the sequential run. Latency sums are float and order-dependent
     across shards, so the gate compares int counters and per-packet
     outcome signatures only. *)
  let signature_of = function
    | Error e -> "error:" ^ e
    | Ok (o : Runtime.outcome) -> (
        match o.Runtime.verdict with
        | Asic.Chip.Emitted { port; frame } ->
            Printf.sprintf "emitted:%d:%s" port
              (Digest.to_hex (Digest.bytes frame))
        | Asic.Chip.Dropped -> "dropped"
        | Asic.Chip.To_cpu b -> "to_cpu:" ^ Digest.to_hex (Digest.bytes b))
  in
  let parallel_results =
    if !bench_domains <= 1 then []
    else begin
      Format.printf "@.sharded data plane (process_batch_parallel):@.";
      Format.printf "%-12s %12s %14s %12s@." "domains" "wall (ms)" "pkts/sec"
        "ns/pkt";
      let fresh_runtime ~domains =
        let compiled =
          match compile_prototype () with Ok c -> c | Error e -> failwith e
        in
        let rt =
          Runtime.create ~engine:(engine_for ~domains Asic.Chip.Fast) compiled
        in
        Nflib.Catalog.attach_handlers rt compiled;
        install_fib compiled;
        rt
      in
      let oracle = Array.make npkts "" in
      let rt = fresh_runtime ~domains:1 in
      let seq =
        Runtime.process_batch
          ~each:(fun i r -> oracle.(i) <- signature_of r)
          rt workload
      in
      let seq_c = seq.Runtime.counters in
      let domain_counts =
        List.filter (fun d -> d <= !bench_domains) [ 1; 2; 4 ]
        @ if List.mem !bench_domains [ 1; 2; 4 ] then [] else [ !bench_domains ]
      in
      List.map
        (fun d ->
          (* Timed runs use exactly the sequential discipline: a fresh
             compile + FIB each run, no per-packet callback inside the
             clocked region, min of [runs]. (The old code timed a single
             run with the signature collector live, which made domains:1
             spuriously incomparable with the sequential row.) *)
          let dt =
            List.fold_left
              (fun acc _ ->
                let rt = fresh_runtime ~domains:d in
                Gc.full_major ();
                let t0 = Unix.gettimeofday () in
                ignore (Runtime.process_batch_parallel rt workload);
                min acc (Unix.gettimeofday () -. t0))
              infinity (List.init runs Fun.id)
          in
          (* Equivalence is checked on a separate, untimed run. *)
          let rt = fresh_runtime ~domains:d in
          let sigs = Array.make npkts "" in
          let stats =
            Runtime.process_batch_parallel
              ~each:(fun i r -> sigs.(i) <- signature_of r)
              rt workload
          in
          let c = stats.Runtime.counters in
          let same =
            stats.Runtime.emitted = seq.Runtime.emitted
            && stats.Runtime.dropped = seq.Runtime.dropped
            && stats.Runtime.to_cpu = seq.Runtime.to_cpu
            && stats.Runtime.errors = seq.Runtime.errors
            && c.Runtime.Counters.cpu_round_trips
               = seq_c.Runtime.Counters.cpu_round_trips
            && c.Runtime.Counters.recircs = seq_c.Runtime.Counters.recircs
            && c.Runtime.Counters.resubmits = seq_c.Runtime.Counters.resubmits
            && sigs = oracle
          in
          Format.printf "%-12d %12.2f %14.0f %12.0f%s@." d (dt *. 1000.0)
            (rate dt) (ns_per_pkt dt)
            (if same then "" else "  DIVERGED");
          if not same then begin
            let mismatches = ref 0 in
            Array.iteri
              (fun i s ->
                if not (String.equal s oracle.(i)) then begin
                  incr mismatches;
                  if !mismatches <= 3 then
                    Format.printf
                      "  packet %d: sequential=%s domains-%d=%s@." i oracle.(i)
                      d s
                end)
              sigs;
            if !mismatches > 0 then
              Format.printf "  (%d per-packet mismatches)@." !mismatches
          end;
          (d, dt, same))
        domain_counts
    end
  in
  if not (List.for_all (fun (_, _, same) -> same) parallel_results) then begin
    Format.printf "ERROR: sharded runs diverge from the sequential data plane!@.";
    exit 1
  end;
  (* domains:1 is process_batch by construction, so under the unified
     timing discipline its wall time must track the sequential fast row.
     A >10% gap either way means the harness is measuring two different
     things again — fail loudly rather than publish inconsistent
     numbers. (Skipped under --smoke: 200-packet timings are too noisy
     to hold a 10% band.) *)
  (match List.find_opt (fun (d, _, _) -> d = 1) parallel_results with
  | Some (_, d1_s, _) when not !smoke ->
      let drift = abs_float (d1_s -. fast_s) /. fast_s in
      Format.printf
        "domains:1 vs sequential fast: %.2fms vs %.2fms (drift %.1f%%)@."
        (d1_s *. 1000.0) (fast_s *. 1000.0) (100.0 *. drift);
      if drift > 0.10 then begin
        Format.printf
          "ERROR: domains:1 diverges from the sequential fast path by more \
           than 10%% - timing disciplines are inconsistent!@.";
        exit 1
      end
  | _ -> ());
  (* --cache: Zipf-skewed flow mixes through the uncached fast path vs
     Engine.Emc. Each flow's first packet misses (and fills the cache);
     every later packet of a cached flow replays the memoized verdict.
     The workload is green-path traffic (classifier-router, no recircs,
     no CPU), i.e. the chain shape the EMC is built for; skew decides
     how much of the traffic is repeat flows. Outputs are digest-gated:
     a cached run must be byte-identical to the uncached oracle.

     Steady-state discipline, symmetric for both modes: each run gets a
     fresh compile + FIB, processes the workload once untimed (the warm
     pass — compulsory first-packet misses are a transient), then
     clocks a second identical pass. The reported hit rate is the timed
     pass's, so capacity pressure (evictions under LRU when the flow
     count outgrows the cache) shows up as a sub-100% rate. *)
  let cache_results =
    if not !bench_cache then []
    else begin
      let zipf_exponent = 1.1 in
      let capacity = 65536 in
      Format.printf
        "@.exact-match flow cache (Zipf %.1f flow mixes, capacity %d):@."
        zipf_exponent capacity;
      Format.printf "%-10s %9s %12s %12s %9s %9s %9s@." "flows" "packets"
        "uncached ms" "cached ms" "hit rate" "speedup" "identical";
      (* Truncated-Zipf CDF + binary search: rank r has mass ~ r^-s. *)
      let zipf_cdf n =
        let cdf = Array.make n 0.0 in
        let acc = ref 0.0 in
        for i = 0 to n - 1 do
          acc := !acc +. (1.0 /. (float_of_int (i + 1) ** zipf_exponent));
          cdf.(i) <- !acc
        done;
        let total = !acc in
        Array.map (fun x -> x /. total) cdf
      in
      let sample st cdf =
        let u = Random.State.float st 1.0 in
        let lo = ref 0 and hi = ref (Array.length cdf - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if cdf.(mid) < u then lo := mid + 1 else hi := mid
        done;
        !lo
      in
      (* Flow rank -> a unique green-path 5-tuple (src bytes + port carry
         the rank; dst stays inside the green /24). *)
      let green_frame id =
        Netpkt.Pkt.encode
          (Netpkt.Pkt.tcp_flow ~src_mac:(mac "02:00:00:00:00:01")
             ~dst_mac:(mac "02:00:00:00:00:02")
             {
               Netpkt.Flow.src =
                 Netpkt.Ip4.of_octets 203
                   ((id lsr 16) land 0xff)
                   ((id lsr 8) land 0xff)
                   (id land 0xff);
               dst = ip (Printf.sprintf "10.0.3.%d" (1 + (id mod 200)));
               proto = Netpkt.Ipv4.proto_tcp;
               src_port = 1024 + (id mod 50000);
               dst_port = 443;
             })
      in
      let mixes =
        if !smoke then [ (200, 2000) ]
        else [ (1_000, 60_000); (100_000, 240_000); (1_000_000, 480_000) ]
      in
      let results =
        List.map
          (fun (flows, n) ->
            let cdf = zipf_cdf flows in
            let st = Random.State.make [| 0x5eed; flows |] in
            let mix_workload =
              List.init n (fun _ -> (0, green_frame (sample st cdf)))
            in
            let run engine =
              let compiled =
                match compile_prototype () with
                | Ok c -> c
                | Error e -> failwith e
              in
              let rt = Runtime.create ~engine compiled in
              Nflib.Catalog.attach_handlers rt compiled;
              install_fib compiled;
              ignore (Runtime.process_batch rt mix_workload);
              let snapshot () =
                match Runtime.flow_cache rt with
                | Some c ->
                    let s = Flow_cache.stats c in
                    (s.Flow_cache.hits, s.Flow_cache.misses)
                | None -> (0, 0)
              in
              let h0, m0 = snapshot () in
              let t0 = Unix.gettimeofday () in
              let stats = Runtime.process_batch rt mix_workload in
              let dt = Unix.gettimeofday () -. t0 in
              let h1, m1 = snapshot () in
              let hr =
                let h = h1 - h0 and m = m1 - m0 in
                if h + m = 0 then 0.0
                else float_of_int h /. float_of_int (h + m)
              in
              (dt, stats, hr)
            in
            let time_min engine =
              let results = List.init runs (fun _ -> run engine) in
              let _, stats, hr = List.hd results in
              ( List.fold_left (fun acc (dt, _, _) -> min acc dt) infinity
                  results,
                stats,
                hr )
            in
            let u_s, u_stats, _ = time_min (engine_for Asic.Chip.Fast) in
            let c_s, c_stats, hit_rate =
              time_min
                {
                  (engine_for Asic.Chip.Fast) with
                  Runtime.Engine.cache = Runtime.Engine.Emc { capacity };
                }
            in
            let identical =
              u_stats.Runtime.digest = c_stats.Runtime.digest
              && u_stats.Runtime.emitted = c_stats.Runtime.emitted
              && u_stats.Runtime.dropped = c_stats.Runtime.dropped
              && u_stats.Runtime.to_cpu = c_stats.Runtime.to_cpu
              && u_stats.Runtime.errors = c_stats.Runtime.errors
            in
            let speedup = if c_s > 0.0 then u_s /. c_s else 0.0 in
            Format.printf "%-10d %9d %12.2f %12.2f %8.1f%% %8.1fx %9b@." flows
              n (u_s *. 1000.0) (c_s *. 1000.0) (100.0 *. hit_rate) speedup
              identical;
            if not identical then begin
              Format.printf
                "ERROR: cached outputs diverge from the uncached fast path!@.";
              exit 1
            end;
            (flows, n, u_s, c_s, hit_rate, speedup, identical))
          mixes
      in
      Format.printf
        "(every cached run digest-matched its uncached oracle; both modes \
         run an untimed warm pass first and clock the second pass, so the \
         hit rate is the steady state's)@.";
      results
    end
  in
  (* --churn: the live control plane under load. A 10k-op BGP-style
     trace (Catalog.fib_churn_trace: FIB announce/re-announce/withdraw
     plus ACL toggles) is cut into batches and replayed through
     Runtime.apply_ops on a running sharded engine with the flow cache
     on, one op batch between every two traffic batches — the paper's
     runtime-churn story: table updates land between packet batches,
     never mid-packet, and the data plane never stops. Reported: update
     throughput (ops/s over the op-apply wall time) and the
     forwarding-rate dip vs an identical churn-free traffic schedule.
     Gated (exit 1, also under --smoke — this is the CI divergence
     gate): the live-applied final state must digest-identical a
     cold-built runtime that applied the same trace with no traffic in
     flight, and both must forward a probe batch identically. *)
  let churn_results =
    if not !bench_churn then None
    else begin
      let n_ops = 10_000 in
      let ops_per_batch = if !smoke then 200 else 50 in
      let pkts_per_batch = if !smoke then 50 else 200 in
      let churn_domains = max 2 !bench_domains in
      let capacity = 65536 in
      let engine =
        {
          (engine_for ~domains:churn_domains Asic.Chip.Fast) with
          Runtime.Engine.cache = Runtime.Engine.Emc { capacity };
        }
      in
      let trace = Nflib.Catalog.fib_churn_trace ~n:n_ops () in
      let op_batches =
        let rec split acc cur k = function
          | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
          | op :: rest ->
              if k = ops_per_batch then
                split (List.rev cur :: acc) [ op ] 1 rest
              else split acc (op :: cur) (k + 1) rest
        in
        split [] [] 0 trace
      in
      let n_batches = List.length op_batches in
      (* Traffic during churn: the bench workload mix, cycled into one
         slice per op batch. *)
      let traffic = Array.of_list workload in
      let traffic_batch b =
        List.init pkts_per_batch (fun i ->
            traffic.((b * pkts_per_batch + i) mod npkts))
      in
      let fresh_rt () =
        let compiled =
          match compile_prototype () with Ok c -> c | Error e -> failwith e
        in
        let rt = Runtime.create ~engine compiled in
        Nflib.Catalog.attach_handlers rt compiled;
        install_fib compiled;
        rt
      in
      Format.printf
        "@.live control plane (--churn): %d ops in %d batches of <=%d, %d \
         pkts of traffic between batches, domains=%d, cache on:@."
        n_ops n_batches ops_per_batch pkts_per_batch churn_domains;
      (* Churn-free baseline: the identical traffic schedule, no ops. *)
      let rt_base = fresh_rt () in
      let base_traffic_s = ref 0.0 in
      for b = 0 to n_batches - 1 do
        let batch = traffic_batch b in
        let t0 = Unix.gettimeofday () in
        ignore (Runtime.process_batch_parallel rt_base batch);
        base_traffic_s := !base_traffic_s +. (Unix.gettimeofday () -. t0)
      done;
      (* Live run: one op batch through the front door, then one traffic
         batch, interleaved across the whole trace. *)
      let rt_live = fresh_rt () in
      let op_s = ref 0.0 and live_traffic_s = ref 0.0 in
      let applied = ref 0 in
      List.iteri
        (fun b ops ->
          let t0 = Unix.gettimeofday () in
          (match Runtime.apply_ops rt_live ops with
          | Ok n -> applied := !applied + n
          | Error e -> failwith ("bench runtime --churn: op failed: " ^ e));
          op_s := !op_s +. (Unix.gettimeofday () -. t0);
          let batch = traffic_batch b in
          let t0 = Unix.gettimeofday () in
          ignore (Runtime.process_batch_parallel rt_live batch);
          live_traffic_s := !live_traffic_s +. (Unix.gettimeofday () -. t0))
        op_batches;
      (* Cold oracle: a fresh runtime, the whole trace applied with no
         traffic in flight. The live-applied control-plane state must be
         byte-identical (the digest covers every table's match keys,
         actions and args, and every register's nonzero cells). *)
      let rt_cold = fresh_rt () in
      (match Runtime.apply_ops rt_cold trace with
      | Ok _ -> ()
      | Error e -> failwith ("bench runtime --churn: cold apply failed: " ^ e));
      let live_digest = Ctrl.state_digest (Runtime.chip rt_live) in
      let cold_digest = Ctrl.state_digest (Runtime.chip rt_cold) in
      let state_match = Int64.equal live_digest cold_digest in
      (* And the two must forward identically from here on: the same
         probe batch under the same sharding, digest-compared. *)
      let probe = workload in
      let p_live = Runtime.process_batch_parallel rt_live probe in
      let p_cold = Runtime.process_batch_parallel rt_cold probe in
      let probe_match = p_live.Runtime.digest = p_cold.Runtime.digest in
      let ops_per_sec =
        if !op_s > 0.0 then float_of_int !applied /. !op_s else 0.0
      in
      let n_traffic = n_batches * pkts_per_batch in
      let ns_live = !live_traffic_s *. 1e9 /. float_of_int n_traffic in
      let ns_base = !base_traffic_s *. 1e9 /. float_of_int n_traffic in
      let dip_pct =
        if ns_base > 0.0 then 100.0 *. (ns_live -. ns_base) /. ns_base else 0.0
      in
      Format.printf
        "applied %d ops in %.2fms (%.0f ops/s); traffic %.0f ns/pkt under \
         churn vs %.0f ns/pkt baseline (dip %+.1f%%)@."
        !applied (!op_s *. 1000.0) ops_per_sec ns_live ns_base dip_pct;
      Format.printf
        "final state: live=%Lx cold=%Lx match=%b; probe digests match=%b@."
        live_digest cold_digest state_match probe_match;
      if not (state_match && probe_match) then begin
        Format.printf
          "ERROR: live-applied churn state diverges from the cold-built \
           oracle!@.";
        exit 1
      end;
      Some
        ( !applied,
          n_batches,
          ops_per_sec,
          !op_s,
          n_traffic,
          ns_live,
          ns_base,
          dip_pct,
          churn_domains,
          capacity,
          state_match,
          probe_match )
    end
  in
  (* --state: the bounded state store at benchmark scale, three gated
     phases (all exit 1 on breach, including under --smoke):
       1. under-capacity equivalence — the mixed workload through
          Engine.Bounded at a capacity no flow population reaches must
          be byte-identical to No_state (the ledger is pure
          bookkeeping until the bound bites);
       2. scale — a large population of distinct flows (1M+ full, 20k
          smoke) through a classifier->lb->nat->router chain whose LB
          sessions AND NAT bindings live on the store: ledger occupancy
          must land exactly on min(flows, capacity), the chip session/
          binding tables must hold exactly the ledger's live set (every
          LRU eviction Del'd its chip entry), and the live heap must
          stay flat after the store saturates — the million-flow story
          with bounded memory;
       3. live re-shard 2 -> 4 -> 1 with traffic between reconfigures:
          the migrated store union must digest-identical a cold-built
          single-shard runtime that saw the same flows.
     Returns the pre-formatted BENCH_runtime.json fragment. *)
  let state_results =
    if not !bench_state then None
    else begin
      let capacity = min !bench_state_capacity 65536 in
      if capacity <> !bench_state_capacity then
        Format.printf
          "note: --state-capacity clamped to 65536 (the chip session \
           table's max_size)@.";
      let ttl_ns = !bench_state_ttl in
      let with_state ?(domains = 1) ?cache st =
        let e = engine_for ~domains Asic.Chip.Fast in
        let e =
          match cache with
          | Some cap ->
              { e with Runtime.Engine.cache = Runtime.Engine.Emc { capacity = cap } }
          | None -> e
        in
        { e with Runtime.Engine.state = st }
      in
      Format.printf
        "@.bounded state store (--state): capacity=%d ttl=%Ldns@." capacity
        ttl_ns;
      (* Phase 1: under-capacity equivalence on the mixed bench
         workload. Capacity pinned at the chip table bound — way above
         the workload's flow count — so the only difference between the
         two runs is the ledger bookkeeping itself. *)
      let run_with engine =
        let compiled =
          match compile_prototype () with Ok c -> c | Error e -> failwith e
        in
        let rt = Runtime.create ~engine compiled in
        Nflib.Catalog.attach_handlers rt compiled;
        install_fib compiled;
        Runtime.process_batch rt workload
      in
      let off = run_with (with_state Runtime.Engine.No_state) in
      let on =
        run_with
          (with_state (Runtime.Engine.Bounded { capacity = 65536; ttl_ns }))
      in
      let equiv =
        off.Runtime.digest = on.Runtime.digest
        && off.Runtime.emitted = on.Runtime.emitted
        && off.Runtime.dropped = on.Runtime.dropped
        && off.Runtime.to_cpu = on.Runtime.to_cpu
        && off.Runtime.errors = on.Runtime.errors
      in
      Format.printf
        "under-capacity equivalence: digest off=%Lx on=%Lx identical=%b@."
        off.Runtime.digest on.Runtime.digest equiv;
      if not equiv then begin
        Format.printf
          "ERROR: Bounded state diverges from No_state under capacity!@.";
        exit 1
      end;
      (* Phase 2: scale. Both stateful NFs in one chain; every flow is a
         distinct source address, so the LB session ledger (5-tuple) and
         the NAT binding ledger (source ip) each grow one entry per flow
         until the bound. *)
      let bounded = Runtime.Engine.Bounded { capacity; ttl_ns } in
      let scale_rt engine =
        let rules =
          [
            {
              Nflib.Classifier.dst_prefix =
                Netpkt.Ip4.prefix_of_string_exn "10.0.1.0/24";
              proto = None;
              path_id = 10;
              tenant = 1;
            };
          ]
        in
        let registry =
          ("classifier", Nflib.Classifier.create rules)
          :: ( Nflib.Nat.name,
               Nflib.Nat.create_dynamic ~max_size:(max 8192 capacity) )
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
          match
            Compiler.compile
              (Compiler.default_input ~registry ~chains
                 ~strategy:Placement.Greedy ())
          with
          | Ok c -> c
          | Error e -> failwith ("bench runtime --state: compile failed: " ^ e)
        in
        let rt = Runtime.create ~engine compiled in
        Nflib.Catalog.attach_handlers rt compiled;
        (rt, compiled)
      in
      (* f's 24 low bits spread over the last three source octets: every
         flow a distinct source, good to 16M flows. *)
      let scale_frame f =
        flow
          ~src:
            (Printf.sprintf "10.%d.%d.%d"
               (64 + ((f lsr 16) land 0x3f))
               ((f lsr 8) land 0xff) (f land 0xff))
          ~dst:Nflib.Catalog.tenant1_vip
          ~src_port:(40000 + (f mod 16384))
          ~dst_port:80
      in
      let scale_flows = if !smoke then 20_000 else 1_000_000 in
      let rt_scale, compiled_scale = scale_rt (with_state bounded) in
      let batch_size = if !smoke then 2_048 else 10_000 in
      (* Heap checkpoint once the store is well saturated (3x capacity
         flows seen): from here to the end of the run live words must
         not grow — flat memory under unbounded flow arrival. *)
      let saturate_at = 3 * capacity in
      let checkpoint = ref None in
      let emitted = ref 0 and errs = ref 0 and flows_done = ref 0 in
      let t0 = Unix.gettimeofday () in
      while !flows_done < scale_flows do
        let n = min batch_size (scale_flows - !flows_done) in
        let base = !flows_done in
        let batch = List.init n (fun i -> (0, scale_frame (base + i))) in
        let stats = Runtime.process_batch rt_scale batch in
        emitted := !emitted + stats.Runtime.emitted;
        errs := !errs + stats.Runtime.errors;
        flows_done := !flows_done + n;
        if !checkpoint = None && !flows_done >= saturate_at then begin
          Gc.full_major ();
          checkpoint := Some ((Gc.stat ()).Gc.live_words, !flows_done)
        end
      done;
      let scale_wall = Unix.gettimeofday () -. t0 in
      Gc.full_major ();
      let final_live = (Gc.stat ()).Gc.live_words in
      let totals = State_store.totals (Runtime.state_stores rt_scale) in
      let occupancy = List.map (fun (name, occ, _) -> (name, occ)) totals in
      let evictions =
        List.fold_left
          (fun acc (_, _, st) -> acc + st.State_store.evictions)
          0 totals
      in
      let expected = min scale_flows capacity in
      let occupancy_ok =
        occupancy <> []
        && List.for_all
             (fun (name, occ) ->
               if
                 name = Nflib.Lb.state_table_name
                 || name = Nflib.Nat.state_table_name
               then occ = expected
               else occ <= capacity)
             occupancy
      in
      let chip_entries nf tbl =
        match
          Asic.Chip.find_table compiled_scale.Compiler.chip
            (Compose.nf_table_name ~nf tbl)
        with
        | Some t -> P4ir.Table.size t
        | None -> -1
      in
      let lb_chip = chip_entries Nflib.Lb.name Nflib.Lb.table_name in
      let nat_chip = chip_entries Nflib.Nat.name Nflib.Nat.table_name in
      let chip_ok = lb_chip = expected && nat_chip = expected in
      let mem_ok, ckpt_words, ckpt_flows =
        match !checkpoint with
        | None -> (true, 0, 0) (* store never saturated: nothing to gate *)
        | Some (w, fl) ->
            let slack = max (w / 10) 1_000_000 in
            (final_live <= w + slack, w, fl)
      in
      let words_mb w = float_of_int w *. 8.0 /. 1048576.0 in
      Format.printf
        "scale: %d flows in %.2fs (%.0f pkts/s), emitted=%d errors=%d, \
         evictions=%d@."
        scale_flows scale_wall
        (float_of_int scale_flows /. scale_wall)
        !emitted !errs evictions;
      List.iter
        (fun (name, occ) ->
          Format.printf "  ledger %-14s entries=%d/%d@." name occ capacity)
        occupancy;
      Format.printf
        "  chip lb=%d nat=%d (expect %d); heap %.1f MB at %d flows -> %.1f \
         MB at %d flows@."
        lb_chip nat_chip expected (words_mb ckpt_words) ckpt_flows
        (words_mb final_live) scale_flows;
      if not (occupancy_ok && chip_ok) then begin
        Format.printf
          "ERROR: state occupancy breached the bound (ledger or chip)!@.";
        exit 1
      end;
      if not mem_ok then begin
        Format.printf
          "ERROR: live heap grew past the flat-memory ceiling after the \
           store saturated!@.";
        exit 1
      end;
      if !errs > 0 then begin
        Format.printf "ERROR: scale run produced packet errors!@.";
        exit 1
      end;
      (* Phase 3: live re-shard under traffic vs a cold-built oracle,
         flow cache on throughout. Kept under capacity so LRU victims —
         which legitimately differ per shard layout — don't enter the
         comparison. *)
      let n1 = max 8 (min (if !smoke then 300 else 2000) (capacity / 4)) in
      let mk domains = fst (scale_rt (with_state ~domains ~cache:4096 bounded)) in
      let slice a b = List.init (b - a) (fun i -> (0, scale_frame (a + i))) in
      let live = mk 2 in
      ignore (Runtime.process_batch_parallel live (slice 0 n1));
      Runtime.configure live
        { (Runtime.engine live) with Runtime.Engine.domains = 4 };
      ignore (Runtime.process_batch_parallel live (slice n1 (2 * n1)));
      Runtime.configure live
        { (Runtime.engine live) with Runtime.Engine.domains = 1 };
      ignore (Runtime.process_batch_parallel live (slice (2 * n1) (3 * n1)));
      let cold = mk 1 in
      ignore (Runtime.process_batch_parallel cold (slice 0 (3 * n1)));
      let d_live = State_store.digest (Runtime.state_stores live) in
      let d_cold = State_store.digest (Runtime.state_stores cold) in
      let reshard_ok = Int64.equal d_live d_cold in
      Format.printf
        "re-shard 2->4->1 over %d flows: live=%Lx cold=%Lx match=%b@."
        (3 * n1) d_live d_cold reshard_ok;
      if not reshard_ok then begin
        Format.printf
          "ERROR: live re-sharded store diverges from the cold-built \
           oracle!@.";
        exit 1
      end;
      let occ_rows =
        String.concat ", "
          (List.map
             (fun (name, occ) -> Printf.sprintf "\"%s\": %d" name occ)
             occupancy)
      in
      Some
        (Printf.sprintf
           "  \"state\": { \"capacity\": %d, \"ttl_ns\": %Ld, \
            \"equivalence_identical\": %b,\n\
           \             \"scale\": { \"flows\": %d, \"wall_s\": %.6f, \
            \"pkts_per_sec\": %.0f, \"evictions\": %d,\n\
           \                        \"occupancy\": { %s }, \"chip_lb\": %d, \
            \"chip_nat\": %d,\n\
           \                        \"live_words_saturated\": %d, \
            \"live_words_final\": %d, \"flat_memory\": %b },\n\
           \             \"reshard\": { \"flows\": %d, \"digest_live\": \
            \"%Lx\", \"digest_cold\": \"%Lx\", \"match\": %b } },\n"
           capacity ttl_ns equiv scale_flows scale_wall
           (float_of_int scale_flows /. scale_wall)
           evictions occ_rows lb_chip nat_chip ckpt_words final_live mem_ok
           (3 * n1) d_live d_cold reshard_ok)
    end
  in
  (* --telemetry / --domains / --cache / --churn keep the JSON even
     under --smoke: the overhead / scaling / churn numbers are the point
     and CI archives the file. *)
  if
    !smoke
    && (not !telemetry)
    && !bench_domains <= 1
    && (not !bench_cache)
    && (not !bench_churn)
    && not !bench_state
  then
    Format.printf "@.--smoke: skipped writing BENCH_runtime.json@."
  else begin
    let overhead_json =
      match overhead with
      | None -> ""
      | Some (tele_s, base_s, pct) ->
          Printf.sprintf
            "  \"overhead\": { \"counters_wall_s\": %.6f, \"fast_wall_s\": \
             %.6f,\n\
            \                \"counters_ns_per_pkt\": %.1f, \"pct_vs_fast\": \
             %.2f },\n"
            tele_s base_s (ns_per_pkt tele_s) pct
    in
    let allocs_json =
      let rows =
        List.map
          (fun (name, minor, major, total) ->
            Printf.sprintf
              "    { \"config\": %S, \"minor_words_per_pkt\": %.1f, \
               \"major_words_per_pkt\": %.1f, \"words_per_pkt\": %.1f }"
              name minor major total)
          alloc_results
      in
      Printf.sprintf
        "  \"allocations\": { \"budget_fast_words_per_pkt\": %.0f, \
         \"configs\": [\n\
         %s\n\
        \  ] },\n"
        alloc_budget_words
        (String.concat ",\n" rows)
    in
    let parallel_json =
      match parallel_results with
      | [] -> ""
      | results ->
          let rows =
            List.map
              (fun (d, dt, same) ->
                Printf.sprintf
                  "    { \"domains\": %d, \"wall_s\": %.6f, \"pkts_per_sec\": \
                   %.0f, \"ns_per_pkt\": %.1f, \"identical\": %b }"
                  d dt (rate dt) (ns_per_pkt dt) same)
              results
          in
          Printf.sprintf "  \"parallel\": [\n%s\n  ],\n"
            (String.concat ",\n" rows)
    in
    let cache_json =
      match cache_results with
      | [] -> ""
      | results ->
          let rows =
            List.map
              (fun (flows, n, u_s, c_s, hit_rate, speedup, identical) ->
                Printf.sprintf
                  "    { \"flows\": %d, \"packets\": %d,\n\
                  \      \"uncached\": { \"wall_s\": %.6f, \"pkts_per_sec\": \
                   %.0f, \"ns_per_pkt\": %.1f },\n\
                  \      \"cached\": { \"wall_s\": %.6f, \"pkts_per_sec\": \
                   %.0f, \"ns_per_pkt\": %.1f },\n\
                  \      \"hit_rate\": %.4f, \"speedup\": %.2f, \
                   \"identical\": %b }"
                  flows n u_s
                  (float_of_int n /. u_s)
                  (u_s *. 1e9 /. float_of_int n)
                  c_s
                  (float_of_int n /. c_s)
                  (c_s *. 1e9 /. float_of_int n)
                  hit_rate speedup identical)
              results
          in
          Printf.sprintf
            "  \"cache\": { \"zipf\": 1.1, \"capacity\": 65536, \"mixes\": [\n\
             %s\n\
            \  ] },\n"
            (String.concat ",\n" rows)
    in
    let churn_json =
      match churn_results with
      | None -> ""
      | Some
          ( applied,
            n_batches,
            ops_per_sec,
            op_s,
            n_traffic,
            ns_live,
            ns_base,
            dip_pct,
            churn_domains,
            capacity,
            state_match,
            probe_match ) ->
          Printf.sprintf
            "  \"churn\": { \"ops\": %d, \"op_batches\": %d, \
             \"ops_per_sec\": %.0f, \"update_wall_s\": %.6f,\n\
            \             \"traffic\": { \"packets\": %d, \
             \"ns_per_pkt_live\": %.1f, \"ns_per_pkt_baseline\": %.1f, \
             \"dip_pct\": %.2f },\n\
            \             \"domains\": %d, \"cache_capacity\": %d,\n\
            \             \"state_digest_match\": %b, \
             \"probe_digest_match\": %b },\n"
            applied n_batches ops_per_sec op_s n_traffic ns_live ns_base
            dip_pct churn_domains capacity state_match probe_match
    in
    let state_json = Option.value ~default:"" state_results in
    let oc = open_out "BENCH_runtime.json" in
    Printf.fprintf oc
      "{\n\
      \  \"benchmark\": \"runtime\",\n\
      \  \"packets\": %d,\n\
      \  \"fib_prefixes\": %d,\n\
      \  \"runs\": %d,\n\
      \  \"smoke\": %b,\n\
      \  \"fast\": { \"wall_s\": %.6f, \"pkts_per_sec\": %.0f, \"ns_per_pkt\": %.1f },\n\
      \  \"reference\": { \"wall_s\": %.6f, \"pkts_per_sec\": %.0f, \"ns_per_pkt\": %.1f },\n\
       %s\
       %s\
      \  \"speedup\": %.2f,\n\
      \  \"identical\": %b,\n\
      \  \"traces_equal\": %b,\n\
      \  \"stats\": { \"emitted\": %d, \"dropped\": %d, \"to_cpu\": %d, \"errors\": %d,\n\
      \              \"cpu_round_trips\": %d, \"recircs\": %d, \"resubmits\": %d,\n\
      \              \"digest\": \"%Lx\" }\n\
       }\n"
      npkts (fib_extra + 2) runs !smoke fast_s (rate fast_s) (ns_per_pkt fast_s)
      ref_s (rate ref_s) (ns_per_pkt ref_s) overhead_json
      (allocs_json ^ parallel_json ^ cache_json ^ churn_json ^ state_json)
      speedup
      identical traces_equal fast.Runtime.emitted fast.Runtime.dropped
      fast.Runtime.to_cpu fast.Runtime.errors
      fast_c.Runtime.Counters.cpu_round_trips fast_c.Runtime.Counters.recircs
      fast_c.Runtime.Counters.resubmits fast.Runtime.digest;
    close_out oc;
    Format.printf "@.wrote BENCH_runtime.json@."
  end;
  (* Allocation regression gate (CI, runs in every mode including plain
     --smoke): allocation counts are deterministic, so unlike the timing
     gates this one needs no smoke slack — the budget already carries
     the headroom. A fast/off steady-state pass allocating past it means
     someone put allocation on the uninstrumented hot path. *)
  if fast_alloc_total > alloc_budget_words then begin
    Format.printf
      "ERROR: fast/off allocates %.1f words/pkt, over the %.0f budget@."
      fast_alloc_total alloc_budget_words;
    exit 1
  end;
  (* Smoke-mode regression gate (CI): a Counters overhead way past the
     5% budget fails the run. The smoke threshold is looser (15%)
     because 200-packet timings are noisy. *)
  match overhead with
  | Some (_, _, pct) when !smoke && pct > 15.0 ->
      Format.printf "ERROR: Counters overhead %.1f%% exceeds the 15%% smoke gate@."
        pct;
      exit 1
  | _ -> ()

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8a", fig8a);
    ("fig8b", fig8b);
    ("fig9", fig9);
    ("table1", table1);
    ("validation", validation);
    ("motivation", motivation);
    ("ablation-compose", ablation_compose);
    ("ablation-placement", ablation_placement);
    ("ablation-loopback", ablation_loopback);
    ("related-work", related_work);
    ("ablation-cluster", ablation_cluster);
    ("placement", bench_placement);
    ("runtime", bench_runtime);
    ("micro", microbench);
  ]

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let rec strip_flags acc = function
    | [] -> List.rev acc
    | "--smoke" :: rest ->
        smoke := true;
        strip_flags acc rest
    | "--telemetry" :: rest ->
        telemetry := true;
        strip_flags acc rest
    | "--cache" :: rest ->
        bench_cache := true;
        strip_flags acc rest
    | "--churn" :: rest ->
        bench_churn := true;
        strip_flags acc rest
    | "--state" :: rest ->
        bench_state := true;
        strip_flags acc rest
    | "--state-capacity" :: n :: rest ->
        (match int_of_string_opt n with
        | Some c when c >= 1 -> bench_state_capacity := c
        | _ ->
            Format.printf "invalid --state-capacity value %S@." n;
            exit 2);
        strip_flags acc rest
    | "--ttl" :: n :: rest ->
        (match Int64.of_string_opt n with
        | Some t when t >= 0L -> bench_state_ttl := t
        | _ ->
            Format.printf "invalid --ttl value %S@." n;
            exit 2);
        strip_flags acc rest
    | "--domains" :: n :: rest ->
        (match int_of_string_opt n with
        | Some d when d >= 1 -> bench_domains := d
        | _ ->
            Format.printf "invalid --domains value %S@." n;
            exit 2);
        strip_flags acc rest
    | a :: rest -> strip_flags (a :: acc) rest
  in
  let requested = strip_flags [] argv in
  let to_run =
    match requested with
    | [] -> experiments
    | names ->
        List.filter_map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> Some (n, f)
            | None ->
                Format.printf "unknown experiment %S (have: %s)@." n
                  (String.concat ", " (List.map fst experiments));
                None)
          names
  in
  List.iter (fun (_, f) -> f ()) to_run
