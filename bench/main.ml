(* Reproduction harness: one section per table/figure of the paper's
   evaluation, plus the ablations from DESIGN.md and bechamel
   microbenchmarks of the library itself.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig8a   # one experiment
     dune exec bench/main.exe -- runtime --smoke   # CI's scale, same gates
     dune exec bench/main.exe -- micro "chip walk (green path)"   # one row

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

(* The bench's one clock: [f ()] and the seconds it took, on the
   monotonic clock. *)
let clock f =
  let t0 = Telemetry.Tclock.now_ns () in
  let r = f () in
  (Int64.to_float (Int64.sub (Telemetry.Tclock.now_ns ()) t0) *. 1e-9, r)

(* The one timing discipline. A side is a set-up that returns the thunk
   to time. Every run of a side gets a fresh set-up, then a
   [Gc.full_major] so no set-up garbage is collected on the clock, then
   the clock around the thunk alone. The rounds rotate which side goes
   first, so a slow window of the host falls on every side alike.
   Returns, per side, its seconds in each round and its first run's
   result. *)
let time_rounds ~rounds sides =
  let sides = Array.of_list sides in
  let n = Array.length sides in
  let secs = Array.init n (fun _ -> Array.make rounds 0.0) in
  let first = Array.make n None in
  for r = 0 to rounds - 1 do
    for k = 0 to n - 1 do
      let i = (r + k) mod n in
      let run = sides.(i) () in
      Gc.full_major ();
      let dt, x = clock run in
      secs.(i).(r) <- dt;
      if Option.is_none first.(i) then first.(i) <- Some x
    done
  done;
  List.init n (fun i -> (secs.(i), Option.get first.(i)))

(* Reported wall times are the fastest round. *)
let fastest = Array.fold_left min infinity

(* --smoke (used by CI) shrinks every benchmark to a short run that
   still takes every code path and every gate. *)
let smoke = ref false

(* [micro NAME...]: the rows of [bench micro] to run; all when none is
   named. *)
let micro_rows = ref []

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
  let strategies =
    [
      ("naive", Placement.Naive);
      ("greedy", Placement.Greedy);
      ("anneal", Placement.default_anneal);
      ("exhaustive", Placement.Exhaustive);
    ]
  in
  (* Warm compiles: 3 rotated rounds, fastest kept, so the first row
     does not carry the process's warm-up. *)
  let timed =
    time_rounds ~rounds:3
      (List.map (fun (_, strategy) () -> compile_prototype ~strategy) strategies)
  in
  List.iter2
    (fun (name, _) (secs, r) ->
      match r with
      | Error e -> Format.printf "%-12s failed: %s@." name e
      | Ok compiled ->
          Format.printf "%-12s %10.3f %10.1fms@." name compiled.Compiler.objective
            (fastest secs *. 1000.0))
    strategies timed

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
(* The deployment the micro and runtime benchmarks share              *)
(* ------------------------------------------------------------------ *)

(* A realistic FIB: 512 /24s + 32 /20s in 172.16.0.0/12, none covering
   the workloads' destinations — outputs are unchanged, but the router
   lookup runs at production table scale (the reference interpreter
   scans every prefix per packet; the indexed path probes one bucket
   per prefix length). *)
let fib_ops =
  let route len b c =
    Ctrl.Table
      ( Nflib.Catalog.routes_table_name,
        Ctrl.Add
          (Nflib.Router.route_entry
             {
               Nflib.Router.prefix =
                 Netpkt.Ip4.prefix (Netpkt.Ip4.of_octets 172 b c 0) len;
               next_hop_mac = mac "02:00:00:aa:00:01";
               src_mac = mac "02:00:00:00:00:fe";
             }) )
  in
  List.init 512 (fun i -> route 24 (16 + (i lsr 8)) (i land 0xff))
  @ List.init 32 (fun i -> route 20 (24 + (i lsr 4)) ((i land 0xf) lsl 4))

(* The policy's own two routes plus the FIB. *)
let fib_prefixes = List.length fib_ops + 2

(* The one deployment: compile [input] (the Fig. 2 policy by default),
   start a runtime on [engine], attach the bundled NFs' handlers and
   install the FIB through the typed-op front door, the path the churn
   trace takes at runtime. *)
let deploy ?(engine = Runtime.Engine.default)
    ?(input = Nflib.Catalog.edge_cloud_input ()) () =
  let compiled =
    match Compiler.compile input with Ok c -> c | Error e -> failwith e
  in
  let rt = Runtime.create ~engine compiled in
  Nflib.Catalog.attach_handlers rt compiled;
  (match Ctrl.apply_all compiled.Compiler.chip fib_ops with
  | Ok _ -> ()
  | Error e -> failwith ("bench runtime: FIB install failed: " ^ e));
  rt

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
  (* A row: its name, whether bechamel compacts before each sample, and
     the set-up that returns the function to time. Only the selected
     rows are set up, each just before it runs. *)
  let row name f = (name, true, fun () -> f) in
  (* CRC-32 at the IMIX sizes: the batch digest's per-byte cost. *)
  let crc32_row n =
    let b = Bytes.init n (fun i -> Char.chr (i land 0xff)) in
    row (Printf.sprintf "crc32 %d B" n) (fun () ->
        ignore (Netpkt.Bytes_util.crc32_int b ~off:0 ~len:n))
  in
  (* A full 65,536-entry cache, one green flow per entry, each cached on
     its first run; the row looks the resident flows up in turn, so
     every lookup is a validated hit that moves its entry to the front.
     Last in the list, so the major-heap work its fill leaves behind
     lands on no other row; sampled without compaction, which on the
     full cache's 18 MiB heap made the row read about six times what a
     tight loop of the same lookups reads. *)
  let cache_hit_setup () =
    let capacity = 65536 in
    let rt =
      Runtime.create
        ~engine:
          {
            Runtime.Engine.default with
            Runtime.Engine.cache = Runtime.Engine.Emc { capacity };
          }
        (Result.get_ok (compile_prototype ()))
    in
    let flows =
      Array.init capacity (fun i ->
          Netpkt.Pkt.encode
            (Netpkt.Pkt.tcp_flow ~src_mac:(mac "02:00:00:00:00:01")
               ~dst_mac:(mac "02:00:00:00:00:02")
               {
                 Netpkt.Flow.src =
                   Netpkt.Ip4.of_octets 100 64 (i lsr 8) (i land 0xff);
                 dst = ip "10.0.3.50";
                 proto = Netpkt.Ipv4.proto_tcp;
                 src_port = 1234;
                 dst_port = 443;
               }))
    in
    ignore (Runtime.process_batch rt (Array.to_list (Array.map (fun f -> (0, f)) flows)));
    let cache = Option.get (Runtime.flow_cache rt) in
    if Flow_cache.length cache <> capacity then
      failwith "micro: the flow cache did not fill";
    let next = ref 0 in
    fun () ->
      let f = flows.(!next land (capacity - 1)) in
      incr next;
      ignore (Flow_cache.lookup cache ~in_port:0 f)
  in
  (* The Fast-mode stages of the walk below, on the same frame: the
     ingress pipelet's parse, its compiled control pass, its deparse of
     the PHV its control left, and the egress pipelet's adoption of
     that PHV at the traffic manager. Adopting an adopted PHV redoes
     the same resets and checksum, so the row reuses one. The control
     row first resets the cells to the parsed packet's (one blit of the
     PHV's cells), so every pass is the first. *)
  let chip = compiled.Compiler.chip in
  let pipelet kind =
    Asic.Chip.pipelet chip
      { Asic.Pipelet.pipeline = Asic.Spec.port_pipeline spec 0; kind }
  in
  let ingress = pipelet Asic.Pipelet.Ingress and egress = pipelet Asic.Pipelet.Egress in
  let phv, payload = Result.get_ok (Asic.Pipelet.parse ingress frame) in
  let parsed = P4ir.Phv.copy phv in
  Asic.Pipelet.process ingress phv;
  let adopted = P4ir.Phv.copy phv in
  if not (Asic.Pipelet.adopt egress adopted) then
    failwith "micro: the egress pipelet does not adopt the green PHV";
  let pass = P4ir.Phv.copy parsed in
  let ncells = Array.length parsed.P4ir.Phv.cells in
  (* One of the framework's check_sfcFlags tables, which are keyless
     and hold no entry: every apply runs the default translation. *)
  let flags = Option.get (Asic.Chip.find_table chip (Compose.check_flags_name "fw")) in
  if P4ir.Table.keys flags <> [] || P4ir.Table.size flags <> 0 then
    failwith "micro: dv_check_flags__fw is not keyless and empty";
  (* The Fig. 2 chip with the 546-prefix FIB: what a parallel batch
     replicates once per shard, and releases at the join. *)
  let fib_chip = Runtime.chip (deploy ()) in
  let rows =
    [
      row "Chip.replicate (Fig. 2, 546-prefix FIB)" (fun () ->
          Asic.Chip.release (Asic.Chip.replicate fib_chip));
      row "chip walk (green path)" (fun () ->
          ignore (Asic.Chip.inject compiled.Compiler.chip ~in_port:0 frame));
      row "Pipelet.parse (green frame)" (fun () ->
          ignore (Asic.Pipelet.parse ingress frame));
      row "ingress control pass (green PHV)" (fun () ->
          Array.blit parsed.P4ir.Phv.cells 0 pass.P4ir.Phv.cells 0 ncells;
          Asic.Pipelet.process ingress pass);
      row "dv_check_flags apply (keyless, empty)" (fun () ->
          ignore (P4ir.Table.apply_index ~regs:P4ir.Action.no_regs flags phv));
      row "Pipelet.adopt (green PHV)" (fun () -> ignore (Asic.Pipelet.adopt egress adopted));
      row "Pipelet.deparse_fast (green PHV)" (fun () ->
          ignore (Asic.Pipelet.deparse_fast ingress phv ~payload));
      row "generic parser parse" (fun () ->
          let phv = P4ir.Phv.create [] in
          ignore (P4ir.Parser_graph.parse parser frame phv));
      row "parser merge (6 parsers)" (fun () ->
          let nfs =
            List.filter_map
              (fun (n, _) ->
                Result.to_option
                  (Result.map (fun nf -> nf.Nf.parser) (Nf.instantiate registry n)))
              (List.filteri (fun i _ -> i < 5) registry)
          in
          ignore
            (Parser_merge.merge ~name:"bench"
               (Net_hdrs.base_parser ~with_vlan:true ~name:"fw" () :: nfs)));
      row "end-to-end compile (Fig. 2 policy)" (fun () -> ignore (compile_prototype ()));
      row "sfc header encode+decode" (fun () ->
          ignore (Sfc_header.decode (Sfc_header.encode Sfc_header.default) ~off:0));
      crc32_row 64;
      crc32_row 594;
      crc32_row 1518;
      ("flow cache hit (65,536 entries, full)", false, cache_hit_setup);
    ]
  in
  let selected =
    match !micro_rows with
    | [] -> rows
    | names ->
        List.map
          (fun n ->
            match List.find_opt (fun (name, _, _) -> name = n) rows with
            | Some r -> r
            | None ->
                Format.printf "unknown micro row %S (have: %s)@." n
                  (String.concat "; " (List.map (fun (name, _, _) -> name) rows));
                exit 2)
          names
  in
  (* --smoke runs every row at a tenth of the quota: what CI needs to
     take every set-up and its checks. *)
  let quota = if !smoke then 0.05 else 0.5 in
  let run_one ~stabilize test =
    let open Bechamel in
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second quota) ~kde:(Some 100) ~stabilize ()
    in
    let raw = Benchmark.all cfg [ instance ] test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    Analyze.all ols instance raw
  in
  let report results =
    Hashtbl.iter
      (fun name result ->
        match Bechamel.Analyze.OLS.estimates result with
        | Some [ est ] -> Format.printf "%-44s %12.0f ns/run@." name est
        | _ -> Format.printf "%-44s (no estimate)@." name)
      results
  in
  List.iter
    (fun (name, stabilize, setup) ->
      let f = setup () in
      report
        (run_one ~stabilize (Bechamel.Test.make ~name (Bechamel.Staged.stage f))))
    selected

(* ------------------------------------------------------------------ *)
(* The bench harness: one gate and one JSON writer, shared by the      *)
(* placement and runtime benchmarks, over the one timing discipline    *)
(* ([time_rounds], beside [clock] above).                              *)
(* ------------------------------------------------------------------ *)

module J = Telemetry.Json

let time_pair ~rounds a b =
  match time_rounds ~rounds [ a; b ] with [ x; y ] -> (x, y) | _ -> assert false

let median a =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  (s.((n - 1) / 2) +. s.(n / 2)) /. 2.0

(* What the timing gates compare: the median over rounds of [a]'s time
   over [b]'s in the same round. A host that slows down for a while
   slows both sides of a round, so the ratio stays put where a ratio of
   minimums or of sums would not. *)
let median_ratio a b = median (Array.map2 ( /. ) a b)

(* Every gate: prints its verdict; a failed gate ends the run with
   exit 1. *)
let gate name ok =
  Format.printf "gate %-50s %s@." name (if ok then "ok" else "FAILED");
  if not ok then begin
    Format.printf "ERROR: gate failed: %s@." name;
    exit 1
  end

let write_json file v =
  let oc = open_out file in
  output_string oc (J.to_string ~pretty:true v);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote %s@." file

(* A --smoke run writes BENCH_<name>.smoke.json, so only a full run
   replaces the committed BENCH_<name>.json. *)
let write_bench name members =
  write_json
    (Printf.sprintf "BENCH_%s%s.json" name (if !smoke then ".smoke" else ""))
    (J.Obj (("benchmark", J.String name) :: members))

(* ------------------------------------------------------------------ *)
(* Placement solver benchmark: wall time and solution cost per solver   *)
(* and spec size, the anneal head-to-head (move-diff vs the reference   *)
(* oracle, gated identical), and multi-domain parallel restarts, in     *)
(* BENCH_placement.json.                                                *)
(* ------------------------------------------------------------------ *)

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
  let anneal =
    Placement.Anneal { iterations = anneal_iterations; seed = 1; initial_temp = 2.0 }
  in
  let spec_json spec =
    let input = input_of spec in
    Format.printf "@.%s (%d pipelines)@." spec.Asic.Spec.name
      spec.Asic.Spec.n_pipelines;
    Format.printf "%-12s %12s %10s@." "solver" "wall (ms)" "cost";
    let solvers =
      [ ("naive", Placement.Naive); ("greedy", Placement.Greedy); ("anneal", anneal) ]
      @ if spec.Asic.Spec.n_pipelines <= 2 then [ ("exhaustive", Placement.Exhaustive) ]
        else []
    in
    (* Every row, and the anneal under the reference scorer, goes
       through the one timing discipline: 3 rotated rounds, fastest
       kept, so no row carries a first call's warm-up. *)
    let timed =
      List.combine
        (List.map fst solvers @ [ "reference" ])
        (time_rounds ~rounds:3
           (List.map (fun (_, strategy) () () -> Placement.solve input strategy) solvers
           @ [ (fun () () -> Placement.solve ~scorer:Placement.Reference input anneal) ]))
    in
    let rows =
      List.filter_map
        (fun (name, _) ->
          match List.assoc name timed with
          | _, Error e ->
              Format.printf "%-12s failed: %s@." name e;
              None
          | secs, Ok (_, cost) ->
              let dt = fastest secs in
              Format.printf "%-12s %12.2f %10.3f@." name (dt *. 1000.0) cost;
              Some
                (J.Obj
                   [
                     ("solver", J.String name);
                     ("wall_s", J.fixed 6 dt);
                     ("cost", J.fixed 6 cost);
                   ]))
        solvers
    in
    (* The anneal row against the oracle: both scorers walk the same
       trajectory, so their layouts and costs must be equal. *)
    let anneal_secs, fast = List.assoc "anneal" timed in
    let ref_secs, reference = List.assoc "reference" timed in
    let ref_s = fastest ref_secs in
    let identical =
      match (fast, reference) with
      | Ok (la, ca), Ok (lb, cb) -> la = lb && abs_float (ca -. cb) < 1e-9
      | Error _, Error _ -> true
      | _ -> false
    in
    let speedup = ref_s /. fastest anneal_secs in
    Format.printf "anneal reference=%.2fms speedup=%.1fx identical=%b@."
      (ref_s *. 1000.0) speedup identical;
    gate
      (Printf.sprintf "%s: anneal Fast = Reference" spec.Asic.Spec.name)
      identical;
    (* Parallel restarts: the full seed sweep on a 4-domain pool. *)
    let restart_domains = 4 in
    let restart_seeds = [ 1; 2; 3; 4; 5; 6 ] in
    let restarts =
      let secs, r =
        List.hd
          (time_rounds ~rounds:3
             [
               (fun () () ->
                 Placement.solve_parallel ~iterations:anneal_iterations
                   ~domains:restart_domains ~seeds:restart_seeds input);
             ])
      in
      match r with
      | Error e ->
          Format.printf "restarts failed: %s@." e;
          [ ("domains", J.Int restart_domains); ("error", J.String e) ]
      | Ok p ->
          let par_s = fastest secs in
          Format.printf "restarts (%d seeds, %d domains): best=%.3f in %.2fms@."
            (List.length restart_seeds) restart_domains p.Placement.cost
            (par_s *. 1000.0);
          [
            ("domains", J.Int restart_domains);
            ("wall_s", J.fixed 6 par_s);
            ("best_cost", J.fixed 6 p.Placement.cost);
            ( "per_seed",
              J.List
                (List.map
                   (fun (r : Placement.restart) ->
                     J.Obj
                       [
                         ("seed", J.Int r.Placement.seed);
                         ( "cost",
                           match r.Placement.cost with
                           | Some c -> J.fixed 6 c
                           | None -> J.Null );
                       ])
                   p.Placement.restarts) );
          ]
    in
    J.Obj
      [
        ("spec", J.String spec.Asic.Spec.name);
        ("n_pipelines", J.Int spec.Asic.Spec.n_pipelines);
        ("solvers", J.List rows);
        ("anneal_reference_s", J.fixed 6 ref_s);
        ("anneal_speedup", J.fixed 2 speedup);
        ("anneal_results_identical", J.Bool identical);
        ("restarts", J.Obj restarts);
      ]
  in
  let specs = List.map spec_json specs in
  write_bench "placement"
    [ ("anneal_iterations", J.Int anneal_iterations); ("specs", J.List specs) ]

(* ------------------------------------------------------------------ *)
(* Data-plane runtime benchmark: an ordered list of scenarios over one  *)
(* deployment recipe, each gating what it measures and returning its    *)
(* block of BENCH_runtime.json.                                         *)
(* ------------------------------------------------------------------ *)

(* What --smoke scales; everything else is the same at both scales. *)
type scale = {
  packets : int;  (** the mixed workload's length *)
  rounds : int;  (** timing rounds per timed comparison *)
  domain_counts : int list;  (** the sharded rows *)
  cache_mixes : (int * int) list;  (** Zipf mixes as (flows, packets) *)
  churn_domains : int;
  churn_ops_per_batch : int;
  churn_pkts_per_batch : int;
  state_capacity : int;
  state_flows : int;  (** distinct flows through the scale phase *)
  state_batch : int;
  reshard_flows : int;  (** flows per leg of the 2 -> 4 -> 1 re-shard *)
}

let smoke_scale =
  {
    packets = 200;
    rounds = 15;
    domain_counts = [ 1; 2 ];
    cache_mixes = [ (200, 2000) ];
    churn_domains = 2;
    churn_ops_per_batch = 200;
    churn_pkts_per_batch = 50;
    state_capacity = 4096;
    state_flows = 20_000;
    state_batch = 2_048;
    reshard_flows = 300;
  }

let full_scale =
  {
    packets = 4000;
    rounds = 7;
    domain_counts = [ 1; 2; 4 ];
    cache_mixes = [ (1_000, 60_000); (100_000, 240_000); (1_000_000, 480_000) ];
    churn_domains = 4;
    churn_ops_per_batch = 50;
    churn_pkts_per_batch = 200;
    state_capacity = 65536;
    state_flows = 1_000_000;
    state_batch = 10_000;
    reshard_flows = 2000;
  }

let flow ~src ~dst ~src_port ~dst_port =
  Netpkt.Pkt.encode
    (Netpkt.Pkt.tcp_flow ~src_mac:(mac "02:00:00:00:00:01")
       ~dst_mac:(mac "02:00:00:00:00:02")
       {
         Netpkt.Flow.src;
         dst;
         proto = Netpkt.Ipv4.proto_tcp;
         src_port;
         dst_port;
       })

(* Mixed workload over the Fig. 2 policy: green (classifier-router),
   orange (classifier-vgw-router) and red (the full 5-NF chain through
   the LB, which punts each new flow to the CPU and installs a
   connection entry — so the batch also exercises table growth and the
   CPU round-trip path). *)
let mixed_workload n =
  List.init n (fun i ->
      let frame =
        match i mod 4 with
        | 0 ->
            flow ~src:(ip "203.0.113.7")
              ~dst:(ip (Printf.sprintf "10.0.3.%d" (1 + (i mod 200))))
              ~src_port:(40000 + (i mod 97)) ~dst_port:443
        | 1 ->
            flow ~src:(ip "203.0.113.8")
              ~dst:(ip (Printf.sprintf "10.0.2.%d" (1 + (i mod 200))))
              ~src_port:(41000 + (i mod 89)) ~dst_port:80
        | 2 ->
            flow ~src:(ip "203.0.113.9") ~dst:Nflib.Catalog.tenant1_vip
              ~src_port:(50000 + (i mod 61)) ~dst_port:80
        | _ ->
            flow ~src:(ip "203.0.113.10") ~dst:(ip "10.0.3.50")
              ~src_port:(42000 + (i mod 127)) ~dst_port:8080
      in
      (0, frame))

let fast = Runtime.Engine.default
let reference = { fast with Runtime.Engine.exec_mode = Asic.Chip.Reference }
let sharded d = { fast with Runtime.Engine.domains = d }
let observed level = { fast with Runtime.Engine.telemetry = level }
let emc capacity e = { e with Runtime.Engine.cache = Runtime.Engine.Emc { capacity } }
let bounded capacity = Runtime.Engine.Bounded { capacity; ttl_ns = 0L }

(* A timed side: a fresh deployment on [engine]; the clock covers one
   batch of [workload]. *)
let batch ?(parallel = false) engine workload () =
  let rt = deploy ~engine () in
  fun () ->
    ( rt,
      if parallel then Runtime.process_batch_parallel rt workload
      else Runtime.process_batch rt workload )

(* The one batch-equivalence predicate: every verdict count and counter
   agree and so does the digest — unless [~digest:false], for a sharded
   batch, whose digest chains per-shard digests. *)
let same_batch ?(digest = true) (a : Runtime.batch_stats) (b : Runtime.batch_stats) =
  let ca = a.Runtime.counters and cb = b.Runtime.counters in
  ((not digest) || Int64.equal a.Runtime.digest b.Runtime.digest)
  && a.Runtime.emitted = b.Runtime.emitted
  && a.Runtime.dropped = b.Runtime.dropped
  && a.Runtime.to_cpu = b.Runtime.to_cpu
  && a.Runtime.errors = b.Runtime.errors
  && ca.Runtime.Counters.cpu_round_trips = cb.Runtime.Counters.cpu_round_trips
  && ca.Runtime.Counters.recircs = cb.Runtime.Counters.recircs
  && ca.Runtime.Counters.resubmits = cb.Runtime.Counters.resubmits

(* The one per-packet outcome signature: verdict, egress port and a
   digest of the output frame. *)
let signature = function
  | Error e -> "error:" ^ e
  | Ok (o : Runtime.outcome) -> (
      match o.Runtime.verdict with
      | Asic.Chip.Emitted { port; frame } ->
          Printf.sprintf "emitted:%d:%s" port (Digest.to_hex (Digest.bytes frame))
      | Asic.Chip.Dropped -> "dropped"
      | Asic.Chip.To_cpu b -> "to_cpu:" ^ Digest.to_hex (Digest.bytes b))

let print_header () =
  Format.printf "%-12s %12s %14s %12s@." "row" "wall (ms)" "pkts/sec" "ns/pkt"

(* A wall time as JSON: seconds, rate and per-packet cost. *)
let timing ~packets s =
  let n = float_of_int packets in
  [
    ("wall_s", J.fixed 6 s);
    ("pkts_per_sec", J.fixed 0 (n /. s));
    ("ns_per_pkt", J.fixed 1 (s *. 1e9 /. n));
  ]

(* A timed row: its fastest round, printed and as JSON. *)
let row ~packets label secs =
  let s = fastest secs and n = float_of_int packets in
  Format.printf "%-12s %12.2f %14.0f %12.0f@." label (s *. 1000.0) (n /. s)
    (s *. 1e9 /. n);
  timing ~packets s

type scenario = {
  name : string;
  run : scale -> (int * Bytes.t) list -> (string * J.t) list;
      (** runs, prints and gates; returns its BENCH_runtime.json members *)
}

(* On a fast/reference divergence: rerun both modes in lockstep with the
   flight recorder on, find the first packet whose outcome differs, and
   dump its journey through each mode (divergence.json) plus the raw
   frame (divergence.pcap) for offline replay. *)
let dump_divergence workload =
  let mk mode =
    deploy
      ~engine:
        {
          (observed Telemetry.Level.Journeys) with
          Runtime.Engine.exec_mode = mode;
          ring_capacity = 4;
        }
      ()
  in
  let frt = mk Asic.Chip.Fast and rrt = mk Asic.Chip.Reference in
  let outcome rt (in_port, frame) = signature (Runtime.process rt ~in_port frame) in
  match
    List.find_mapi
      (fun i pkt ->
        let fs = outcome frt pkt and rs = outcome rrt pkt in
        if String.equal fs rs then None else Some (i, pkt, fs, rs))
      workload
  with
  | None ->
      Format.printf
        "divergence did not reproduce in lockstep replay (stateful \
         interleaving?) - no dump written@."
  | Some (i, (in_port, frame), fs, rs) ->
      let last_journey rt =
        match
          Option.bind (Runtime.telemetry rt) (fun o ->
              Telemetry.Ring.last (Observe.ring o))
        with
        | None -> J.Null
        | Some j -> Telemetry.Journey.json j
      in
      write_json "divergence.json"
        (J.Obj
           [
             ("packet_index", J.Int i);
             ("in_port", J.Int in_port);
             ("fast_outcome", J.String fs);
             ("reference_outcome", J.String rs);
             ("fast_journey", last_journey frt);
             ("reference_journey", last_journey rrt);
           ]);
      Netpkt.Pcap.write_file "divergence.pcap"
        [ Netpkt.Pcap.packet ~ts_sec:0 ~ts_usec:i frame ];
      Format.printf "wrote divergence.pcap (packet %d, fast=%s reference=%s)@." i
        fs rs

(* The same workload through the precompiled fast path and the
   statement-tree reference interpreter: byte-identical outputs and
   equal chip hops, or a divergence dump and exit 1. *)
let fast_vs_reference sc workload =
  let (fast_s, (_, f)), (ref_s, (_, r)) =
    time_pair ~rounds:sc.rounds (batch fast workload) (batch reference workload)
  in
  (* Spot-check hop equality, control events included, on one chip
     walk per mode (the QCheck suite does this exhaustively on random
     programs); only the journey recorder's level records hops. *)
  let trace mode =
    let rt =
      deploy
        ~engine:
          { (observed Telemetry.Level.Journeys) with Runtime.Engine.exec_mode = mode }
        ()
    in
    match Asic.Chip.inject (Runtime.chip rt) ~in_port:0 (snd (List.hd workload)) with
    | Ok res -> res.Asic.Chip.hops
    | Error e -> failwith e
  in
  let identical = same_batch f r in
  let traces_equal = trace Asic.Chip.Fast = trace Asic.Chip.Reference in
  print_header ();
  let fast_row = row ~packets:sc.packets "fast" fast_s in
  let ref_row = row ~packets:sc.packets "reference" ref_s in
  let speedup = fastest ref_s /. fastest fast_s in
  let c = f.Runtime.counters in
  Format.printf
    "speedup=%.1fx identical=%b traces_equal=%b (emitted=%d dropped=%d \
     to_cpu=%d cpu_round_trips=%d recircs=%d digest=%Lx)@."
    speedup identical traces_equal f.Runtime.emitted f.Runtime.dropped
    f.Runtime.to_cpu c.Runtime.Counters.cpu_round_trips c.Runtime.Counters.recircs
    f.Runtime.digest;
  if not (identical && traces_equal) then dump_divergence workload;
  gate "fast = reference (outputs and traces)" (identical && traces_equal);
  if f.Runtime.error_log <> [] then begin
    Format.printf "first batch errors:@.";
    List.iter
      (fun (port, msg) -> Format.printf "  in_port=%d %s@." port msg)
      f.Runtime.error_log;
    if f.Runtime.suppressed > 0 then
      Format.printf "  ... and %d more suppressed (first %d kept)@."
        f.Runtime.suppressed
        (List.length f.Runtime.error_log)
  end;
  [
    ("fast", J.Obj fast_row);
    ("reference", J.Obj ref_row);
    ("speedup", J.fixed 2 speedup);
    ("identical", J.Bool identical);
    ("traces_equal", J.Bool traces_equal);
    ( "stats",
      J.Obj
        [
          ("emitted", J.Int f.Runtime.emitted);
          ("dropped", J.Int f.Runtime.dropped);
          ("to_cpu", J.Int f.Runtime.to_cpu);
          ("errors", J.Int f.Runtime.errors);
          ("cpu_round_trips", J.Int c.Runtime.Counters.cpu_round_trips);
          ("recircs", J.Int c.Runtime.Counters.recircs);
          ("resubmits", J.Int c.Runtime.Counters.resubmits);
          ("digest", J.String (Printf.sprintf "%Lx" f.Runtime.digest));
        ] );
  ]

(* The fast path with and without Counters instrumentation. Outputs
   must not change; the overhead is the median per-round ratio, gated
   at 15% at smoke scale (the budget is 5%). *)
let counters_overhead sc workload =
  let counters = observed Telemetry.Level.Counters in
  let (fast_s, (_, f)), (tele_s, (tele_rt, t)) =
    time_pair ~rounds:sc.rounds (batch fast workload) (batch counters workload)
  in
  let pct = 100.0 *. (median_ratio tele_s fast_s -. 1.0) in
  print_header ();
  let fast_row = row ~packets:sc.packets "fast" fast_s in
  let tele_row = row ~packets:sc.packets "counters" tele_s in
  Format.printf "counters overhead vs fast: %+.1f%% (median of %d rounds; budget 5%%)@."
    pct sc.rounds;
  (match Runtime.telemetry tele_rt with
  | None -> ()
  | Some o ->
      let chip = Runtime.chip tele_rt in
      Format.printf "@.telemetry registry after the counters run:@.%t@."
        (fun ppf -> Observe.pp ppf o chip);
      Format.printf "@.as JSON:@.%s@." (Observe.json o chip));
  gate "Counters leaves outputs unchanged" (same_batch f t);
  if !smoke then gate "Counters overhead <= 15% (smoke)" (pct <= 15.0);
  [
    ( "overhead",
      J.Obj
        [
          ("counters_wall_s", List.assoc "wall_s" tele_row);
          ("fast_wall_s", List.assoc "wall_s" fast_row);
          ("counters_ns_per_pkt", List.assoc "ns_per_pkt" tele_row);
          ("pct_vs_fast", J.fixed 2 pct);
        ] );
  ]

(* Allocation accounting: total Gc words (minor + major - promoted)
   allocated per packet, per engine config, over an untimed steady-state
   pass. The warm pass absorbs compulsory first-flow work (LB punts
   install connection entries, the EMC fills), so the measured pass is
   the pure data-plane allocation rate. Allocation counts are
   deterministic, so one measured pass suffices and the fence needs no
   smoke slack. Sequential configs only: Gc.quick_stat is per-domain
   under OCaml 5, so a sharded run's worker allocations would be
   invisible here.

   Measured with OCaml 5.1.1: 156.2 w/pkt at --smoke scale (200 pkts)
   and 156.0 at full scale (4000 pkts), since field values are
   immediate ints in the PHV's cells (boxed values took ~3800), the
   PHV is handed across the traffic manager rather than deparsed and
   re-parsed (317 w/pkt), a walk records its passes only as journey
   hops (listing the pipelets visited on every walk took 228.2 and
   228.0), and the batch loop keeps its tallies and digest in locals
   while a packet's chip walk builds no closure (three batch records, a
   digest buffer, boxed Int64s and the walk's closure per packet took
   214.2 and 214.0). The budget is the smoke measurement plus 20%;
   a fast/off pass over it means someone put allocation on the
   uninstrumented hot path. *)
let alloc_budget_words = 187.0

let allocations sc workload =
  let configs =
    [
      ("fast/off", fast);
      ("fast/counters", observed Telemetry.Level.Counters);
      ("fast/journeys", observed Telemetry.Level.Journeys);
      ("reference/off", reference);
      ("fast/emc", emc 65536 fast);
    ]
  in
  Format.printf "allocations per packet (Gc words, steady-state pass of %d pkts):@."
    sc.packets;
  Format.printf "%-16s %12s %12s %12s@." "config" "minor w/pkt" "major w/pkt"
    "total w/pkt";
  let rows =
    List.map
      (fun (name, engine) ->
        let rt = deploy ~engine () in
        ignore (Runtime.process_batch rt workload);
        Gc.full_major ();
        (* [Gc.minor_words] counts the current minor heap too;
           [quick_stat]'s minor count only moves at minor collections. *)
        let s0 = Gc.quick_stat () and m0 = Gc.minor_words () in
        ignore (Runtime.process_batch rt workload);
        let m1 = Gc.minor_words () and s1 = Gc.quick_stat () in
        let per w = w /. float_of_int sc.packets in
        let minor = per (m1 -. m0) in
        let major =
          per
            (s1.Gc.major_words -. s1.Gc.promoted_words
            -. (s0.Gc.major_words -. s0.Gc.promoted_words))
        in
        Format.printf "%-16s %12.1f %12.1f %12.1f@." name minor major (minor +. major);
        (name, (minor, major)))
      configs
  in
  let fast_total =
    let minor, major = List.assoc "fast/off" rows in
    minor +. major
  in
  gate
    (Printf.sprintf "fast/off allocation <= %.0f words/pkt" alloc_budget_words)
    (fast_total <= alloc_budget_words);
  [
    ( "allocations",
      J.Obj
        [
          ("budget_fast_words_per_pkt", J.fixed 0 alloc_budget_words);
          ( "configs",
            J.List
              (List.map
                 (fun (name, (minor, major)) ->
                   J.Obj
                     [
                       ("config", J.String name);
                       ("minor_words_per_pkt", J.fixed 1 minor);
                       ("major_words_per_pkt", J.fixed 1 major);
                       ("words_per_pkt", J.fixed 1 (minor +. major));
                     ])
                 rows) );
        ] );
  ]

(* The workload sharded over k worker domains (each one a private chip
   replica), timed in the same rounds as the sequential fast path and
   gated on per-packet equivalence with a sequential run. Latency sums
   are float and order-dependent across shards, so the gate compares
   int counters and per-packet outcome signatures, not the digest.
   domains:1 is process_batch by construction, so at full scale its
   median per-round ratio to the sequential row must stay within 10%:
   more means the two rows are timed under different disciplines. *)
let sharded_scenario sc workload =
  let sigs_of process =
    let sigs = Array.make sc.packets "" in
    let stats = process ~each:(fun i r -> sigs.(i) <- signature r) in
    (stats, sigs)
  in
  let seq, oracle =
    sigs_of (fun ~each -> Runtime.process_batch ~each (deploy ()) workload)
  in
  let timed =
    time_rounds ~rounds:sc.rounds
      (batch fast workload
      :: List.map (fun d -> batch ~parallel:true (sharded d) workload) sc.domain_counts)
  in
  let fast_s = fst (List.hd timed) in
  print_header ();
  let rows =
    List.map2
      (fun d (secs, _) ->
        (* Equivalence is checked on a separate, untimed run. *)
        let stats, sigs =
          sigs_of (fun ~each ->
              Runtime.process_batch_parallel ~each
                (deploy ~engine:(sharded d) ())
                workload)
        in
        let mismatches =
          List.filter (fun i -> sigs.(i) <> oracle.(i)) (List.init sc.packets Fun.id)
        in
        let r = row ~packets:sc.packets (Printf.sprintf "domains:%d" d) secs in
        (match mismatches with
        | [] -> ()
        | i :: _ ->
            Format.printf "  %d per-packet mismatches, first packet %d: sequential=%s \
                           domains-%d=%s@."
              (List.length mismatches) i oracle.(i) d sigs.(i));
        (d, secs, same_batch ~digest:false seq stats && mismatches = [], r))
      sc.domain_counts (List.tl timed)
  in
  gate "sharded = sequential (per packet)"
    (List.for_all (fun (_, _, same, _) -> same) rows);
  let drift =
    match List.find_opt (fun (d, _, _, _) -> d = 1) rows with
    | Some (_, d1_s, _, _) -> abs_float (median_ratio d1_s fast_s -. 1.0)
    | None -> 0.0
  in
  Format.printf "domains:1 vs sequential fast: drift %.1f%% (median of %d rounds)@."
    (100.0 *. drift) sc.rounds;
  (* 200-packet batches are too short to hold a 10% band. *)
  if not !smoke then gate "domains:1 within 10% of sequential fast" (drift <= 0.10);
  [
    ( "parallel",
      J.List
        (List.map
           (fun (d, _, same, r) ->
             J.Obj ((("domains", J.Int d) :: r) @ [ ("identical", J.Bool same) ]))
           rows) );
    ("domains1_drift_pct", J.fixed 2 (100.0 *. drift));
  ]

(* Zipf-skewed flow mixes through the uncached fast path and Engine.Emc.
   Each flow's first packet misses (and fills the cache); every later
   packet of a cached flow replays the memoized verdict. The traffic is
   green-path (classifier-router, no recircs, no CPU), the chain shape
   the EMC is built for; skew decides how much of it is repeat flows.
   Each side's set-up processes the mix once (the warm pass: compulsory
   first-packet misses are a transient) and the clock covers a second
   identical pass, whose hit rate is reported, so capacity pressure
   (LRU evictions once the flows outgrow the cache) shows as a sub-100%
   rate. A cached run must be byte-identical to the uncached one. *)
let cache_scenario sc _ =
  let zipf_exponent = 1.1 and capacity = 65536 in
  Format.printf "Zipf %.1f flow mixes, capacity %d:@." zipf_exponent capacity;
  Format.printf "%-10s %9s %12s %12s %9s %9s %9s@." "flows" "packets" "uncached ms"
    "cached ms" "hit rate" "speedup" "identical";
  (* Truncated-Zipf CDF + binary search: rank r has mass ~ r^-s. *)
  let zipf_cdf n =
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (1.0 /. (float_of_int (i + 1) ** zipf_exponent));
      cdf.(i) <- !acc
    done;
    Array.map (fun x -> x /. !acc) cdf
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
  (* Flow rank -> a unique green-path 5-tuple (src bytes + port carry the
     rank; dst stays inside the green /24). *)
  let green_frame id =
    flow
      ~src:
        (Netpkt.Ip4.of_octets 203 ((id lsr 16) land 0xff) ((id lsr 8) land 0xff)
           (id land 0xff))
      ~dst:(ip (Printf.sprintf "10.0.3.%d" (1 + (id mod 200))))
      ~src_port:(1024 + (id mod 50000)) ~dst_port:443
  in
  let hits rt =
    match Runtime.flow_cache rt with
    | Some c ->
        let s = Flow_cache.stats c in
        (s.Flow_cache.hits, s.Flow_cache.misses)
    | None -> (0, 0)
  in
  let side engine mix () =
    let rt = deploy ~engine () in
    ignore (Runtime.process_batch rt mix);
    let h0, m0 = hits rt in
    fun () ->
      let stats = Runtime.process_batch rt mix in
      let h1, m1 = hits rt in
      let h = h1 - h0 and m = m1 - m0 in
      (stats, if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m))
  in
  let mixes =
    List.map
      (fun (flows, n) ->
        let cdf = zipf_cdf flows in
        let st = Random.State.make [| 0x5eed; flows |] in
        let mix = List.init n (fun _ -> (0, green_frame (sample st cdf))) in
        let (u_s, (u, _)), (c_s, (c, hit_rate)) =
          time_pair ~rounds:sc.rounds (side fast mix) (side (emc capacity fast) mix)
        in
        let identical = same_batch u c in
        let u_s = fastest u_s and c_s = fastest c_s in
        let speedup = u_s /. c_s in
        Format.printf "%-10d %9d %12.2f %12.2f %8.1f%% %8.1fx %9b@." flows n
          (u_s *. 1000.0) (c_s *. 1000.0) (100.0 *. hit_rate) speedup identical;
        gate (Printf.sprintf "cached = uncached (%d flows)" flows) identical;
        J.Obj
          [
            ("flows", J.Int flows);
            ("packets", J.Int n);
            ("uncached", J.Obj (timing ~packets:n u_s));
            ("cached", J.Obj (timing ~packets:n c_s));
            ("hit_rate", J.fixed 4 hit_rate);
            ("speedup", J.fixed 2 speedup);
            ("identical", J.Bool identical);
          ])
      sc.cache_mixes
  in
  [
    ( "cache",
      J.Obj
        [
          ("zipf", J.Float zipf_exponent);
          ("capacity", J.Int capacity);
          ("mixes", J.List mixes);
        ] );
  ]

(* The live control plane under load. A 10k-op BGP-style trace
   (Catalog.fib_churn_trace: FIB announce/re-announce/withdraw plus ACL
   toggles) is cut into batches and replayed through Runtime.apply_ops
   on a running sharded engine with the flow cache on, one op batch
   before every traffic batch: table updates land between packet
   batches, never mid-packet, and the data plane never stops. Reported:
   update throughput and the forwarding-rate dip against the identical
   traffic schedule without ops. Gated: the live-applied state must
   digest-identical a cold-built runtime that applied the same trace
   with no traffic in flight, and both must forward a probe batch
   identically. *)
let churn_scenario sc workload =
  let n_ops = 10_000 and capacity = 65536 in
  let engine = emc capacity (sharded sc.churn_domains) in
  let trace = Nflib.Catalog.fib_churn_trace ~n:n_ops () in
  let rec batches = function
    | [] -> []
    | ops ->
        let k = sc.churn_ops_per_batch in
        List.filteri (fun i _ -> i < k) ops
        :: batches (List.filteri (fun i _ -> i >= k) ops)
  in
  let op_batches = batches trace in
  let n_batches = List.length op_batches in
  (* The bench workload, cycled into one traffic slice per op batch. *)
  let traffic = Array.of_list workload in
  let traffic_batch b =
    List.init sc.churn_pkts_per_batch (fun i ->
        traffic.(((b * sc.churn_pkts_per_batch) + i) mod Array.length traffic))
  in
  Format.printf
    "%d ops in %d batches of <=%d, %d pkts of traffic after each, domains=%d, \
     cache on:@."
    n_ops n_batches sc.churn_ops_per_batch sc.churn_pkts_per_batch sc.churn_domains;
  (* One side runs the schedule without ops (the baseline), the other
     with them, clocking the op batches as it goes. *)
  let schedule ~ops () =
    let rt = deploy ~engine () in
    fun () ->
      let applied = ref 0 and op_s = ref 0.0 in
      List.iteri
        (fun b batch ->
          if ops then begin
            let dt, r = clock (fun () -> Runtime.apply_ops rt batch) in
            op_s := !op_s +. dt;
            match r with
            | Ok n -> applied := !applied + n
            | Error e -> failwith ("bench runtime churn: op failed: " ^ e)
          end;
          ignore (Runtime.process_batch_parallel rt (traffic_batch b)))
        op_batches;
      (rt, !applied, !op_s)
  in
  let (base_s, _), (live_s, (rt_live, applied, op_s)) =
    time_pair ~rounds:1 (schedule ~ops:false) (schedule ~ops:true)
  in
  let rt_cold = deploy ~engine () in
  (match Runtime.apply_ops rt_cold trace with
  | Ok _ -> ()
  | Error e -> failwith ("bench runtime churn: cold apply failed: " ^ e));
  (* The digest covers every table's match keys, actions and args, and
     every register's nonzero cells. *)
  let live_digest = Ctrl.state_digest (Runtime.chip rt_live) in
  let cold_digest = Ctrl.state_digest (Runtime.chip rt_cold) in
  let state_match = Int64.equal live_digest cold_digest in
  let probe_match =
    Int64.equal
      (Runtime.process_batch_parallel rt_live workload).Runtime.digest
      (Runtime.process_batch_parallel rt_cold workload).Runtime.digest
  in
  let ops_per_sec = float_of_int applied /. op_s in
  let n_traffic = n_batches * sc.churn_pkts_per_batch in
  let per_pkt s = s *. 1e9 /. float_of_int n_traffic in
  let ns_live = per_pkt (fastest live_s -. op_s) and ns_base = per_pkt (fastest base_s) in
  let dip_pct = 100.0 *. (ns_live -. ns_base) /. ns_base in
  Format.printf
    "applied %d ops in %.2fms (%.0f ops/s); traffic %.0f ns/pkt under churn vs \
     %.0f ns/pkt baseline (dip %+.1f%%)@."
    applied (op_s *. 1000.0) ops_per_sec ns_live ns_base dip_pct;
  Format.printf "final state: live=%Lx cold=%Lx; probe digests match=%b@." live_digest
    cold_digest probe_match;
  gate "churn: live = cold (state digest)" state_match;
  gate "churn: live = cold (probe digest)" probe_match;
  [
    ( "churn",
      J.Obj
        [
          ("ops", J.Int applied);
          ("op_batches", J.Int n_batches);
          ("ops_per_sec", J.fixed 0 ops_per_sec);
          ("update_wall_s", J.fixed 6 op_s);
          ( "traffic",
            J.Obj
              [
                ("packets", J.Int n_traffic);
                ("ns_per_pkt_live", J.fixed 1 ns_live);
                ("ns_per_pkt_baseline", J.fixed 1 ns_base);
                ("dip_pct", J.fixed 2 dip_pct);
              ] );
          ("domains", J.Int sc.churn_domains);
          ("cache_capacity", J.Int capacity);
          ("state_digest_match", J.Bool state_match);
          ("probe_digest_match", J.Bool probe_match);
        ] );
  ]

(* The bounded state store at benchmark scale, three gated phases:
     1. under-capacity equivalence: the mixed workload through
        Engine.Bounded at a capacity no flow population reaches must be
        byte-identical to No_state (the ledger is pure bookkeeping until
        the bound bites);
     2. scale: a large population of distinct flows through a
        classifier->lb->nat->router chain whose LB sessions and NAT
        bindings both live on the store. Ledger occupancy must land
        exactly on min(flows, capacity), the chip session/binding tables
        must hold exactly the ledger's live set (every LRU eviction
        Del'd its chip entry), and the live heap must stay flat after
        the store saturates;
     3. live re-shard 2 -> 4 -> 1 with traffic between reconfigures: the
        migrated store union must digest-identical a cold-built
        single-shard runtime that saw the same flows.
   TTL is 0 (no aging): the scale phase never advances the clock. *)
let state_scenario sc workload =
  let capacity = sc.state_capacity in
  let with_state st e = { e with Runtime.Engine.state = st } in
  Format.printf "capacity=%d ttl=0ns@." capacity;
  let run engine = Runtime.process_batch (deploy ~engine ()) workload in
  let off = run fast and on = run (with_state (bounded 65536) fast) in
  let equiv = same_batch off on in
  Format.printf "under-capacity equivalence: digest off=%Lx on=%Lx@." off.Runtime.digest
    on.Runtime.digest;
  gate "state: Bounded = No_state under capacity" equiv;
  (* Both stateful NFs in one chain; every flow is a distinct source
     address, so the LB session ledger (5-tuple) and the NAT binding
     ledger (source ip) each grow one entry per flow until the bound. *)
  let stateful engine =
    let registry =
      ( "classifier",
        Nflib.Classifier.create
          [
            {
              Nflib.Classifier.dst_prefix = Netpkt.Ip4.prefix_of_string_exn "10.0.1.0/24";
              proto = None;
              path_id = 10;
              tenant = 1;
            };
          ] )
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
    deploy ~engine
      ~input:(Compiler.default_input ~registry ~chains ~strategy:Placement.Greedy ())
      ()
  in
  (* f's 22 low bits spread over the last three source octets: every
     flow a distinct source, good to 4M flows. *)
  let scale_frame f =
    flow
      ~src:
        (Netpkt.Ip4.of_octets 10
           (64 + ((f lsr 16) land 0x3f))
           ((f lsr 8) land 0xff) (f land 0xff))
      ~dst:Nflib.Catalog.tenant1_vip
      ~src_port:(40000 + (f mod 16384))
      ~dst_port:80
  in
  let slice a b = List.init (b - a) (fun i -> (0, scale_frame (a + i))) in
  let rt_scale = stateful (with_state (bounded capacity) fast) in
  (* Heap checkpoint once the store is well saturated (3x capacity flows
     seen): from there to the end of the run live words must not grow. *)
  let saturate_at = 3 * capacity in
  let checkpoint = ref None in
  let emitted = ref 0 and errs = ref 0 in
  let scale_wall, () =
    clock (fun () ->
        let flows_done = ref 0 in
        while !flows_done < sc.state_flows do
          let n = min sc.state_batch (sc.state_flows - !flows_done) in
          let stats =
            Runtime.process_batch rt_scale (slice !flows_done (!flows_done + n))
          in
          emitted := !emitted + stats.Runtime.emitted;
          errs := !errs + stats.Runtime.errors;
          flows_done := !flows_done + n;
          if !checkpoint = None && !flows_done >= saturate_at then begin
            Gc.full_major ();
            checkpoint := Some ((Gc.stat ()).Gc.live_words, !flows_done)
          end
        done)
  in
  Gc.full_major ();
  let final_live = (Gc.stat ()).Gc.live_words in
  let totals = State_store.totals (Runtime.state_stores rt_scale) in
  let occupancy = List.map (fun (name, occ, _) -> (name, occ)) totals in
  let evictions =
    List.fold_left (fun acc (_, _, st) -> acc + st.State_store.evictions) 0 totals
  in
  let expected = min sc.state_flows capacity in
  let occupancy_ok =
    occupancy <> []
    && List.for_all
         (fun (name, occ) ->
           if name = Nflib.Lb.state_table_name || name = Nflib.Nat.state_table_name
           then occ = expected
           else occ <= capacity)
         occupancy
  in
  let chip_entries nf tbl =
    match
      Asic.Chip.find_table (Runtime.chip rt_scale) (Compose.nf_table_name ~nf tbl)
    with
    | Some t -> P4ir.Table.size t
    | None -> -1
  in
  let lb_chip = chip_entries Nflib.Lb.name Nflib.Lb.table_name in
  let nat_chip = chip_entries Nflib.Nat.name Nflib.Nat.table_name in
  let mem_ok, ckpt_words, ckpt_flows =
    match !checkpoint with
    | None -> (true, 0, 0) (* store never saturated: nothing to gate *)
    | Some (w, fl) -> (final_live <= w + max (w / 10) 1_000_000, w, fl)
  in
  let words_mb w = float_of_int w *. 8.0 /. 1048576.0 in
  let pkts_per_sec = float_of_int sc.state_flows /. scale_wall in
  Format.printf
    "scale: %d flows in %.2fs (%.0f pkts/s), emitted=%d errors=%d, evictions=%d@."
    sc.state_flows scale_wall pkts_per_sec !emitted !errs evictions;
  List.iter
    (fun (name, occ) -> Format.printf "  ledger %-14s entries=%d/%d@." name occ capacity)
    occupancy;
  Format.printf
    "  chip lb=%d nat=%d (expect %d); heap %.1f MB at %d flows -> %.1f MB at %d \
     flows@."
    lb_chip nat_chip expected (words_mb ckpt_words) ckpt_flows (words_mb final_live)
    sc.state_flows;
  gate "state: occupancy = min(flows, capacity), ledger and chip"
    (occupancy_ok && lb_chip = expected && nat_chip = expected);
  gate "state: flat live heap after saturation" mem_ok;
  gate "state: no packet errors at scale" (!errs = 0);
  (* Live re-shard under traffic vs a cold-built oracle, flow cache on
     throughout. Kept under capacity so LRU victims, which legitimately
     differ per shard layout, don't enter the comparison. *)
  let n1 = sc.reshard_flows in
  let mk d = stateful (emc 4096 (with_state (bounded capacity) (sharded d))) in
  let live = mk 2 in
  List.iteri
    (fun leg d ->
      if leg > 0 then
        Runtime.configure live { (Runtime.engine live) with Runtime.Engine.domains = d };
      ignore (Runtime.process_batch_parallel live (slice (leg * n1) ((leg + 1) * n1))))
    [ 2; 4; 1 ];
  let cold = mk 1 in
  ignore (Runtime.process_batch_parallel cold (slice 0 (3 * n1)));
  let d_live = State_store.digest (Runtime.state_stores live) in
  let d_cold = State_store.digest (Runtime.state_stores cold) in
  Format.printf "re-shard 2->4->1 over %d flows: live=%Lx cold=%Lx@." (3 * n1) d_live
    d_cold;
  gate "state: live re-shard 2->4->1 = cold" (Int64.equal d_live d_cold);
  [
    ( "state",
      J.Obj
        [
          ("capacity", J.Int capacity);
          ("ttl_ns", J.Int 0);
          ("equivalence_identical", J.Bool equiv);
          ( "scale",
            J.Obj
              [
                ("flows", J.Int sc.state_flows);
                ("wall_s", J.fixed 6 scale_wall);
                ("pkts_per_sec", J.fixed 0 pkts_per_sec);
                ("evictions", J.Int evictions);
                ("occupancy", J.Obj (List.map (fun (n, o) -> (n, J.Int o)) occupancy));
                ("chip_lb", J.Int lb_chip);
                ("chip_nat", J.Int nat_chip);
                ("live_words_saturated", J.Int ckpt_words);
                ("live_words_final", J.Int final_live);
                ("flat_memory", J.Bool mem_ok);
              ] );
          ( "reshard",
            J.Obj
              [
                ("flows", J.Int (3 * n1));
                ("digest_live", J.String (Printf.sprintf "%Lx" d_live));
                ("digest_cold", J.String (Printf.sprintf "%Lx" d_cold));
                ("match", J.Bool (Int64.equal d_live d_cold));
              ] );
        ] );
  ]

let runtime_scenarios =
  [
    { name = "fast vs reference"; run = fast_vs_reference };
    { name = "Counters overhead"; run = counters_overhead };
    { name = "allocations"; run = allocations };
    { name = "sharded data plane"; run = sharded_scenario };
    { name = "exact-match flow cache"; run = cache_scenario };
    { name = "live control plane (churn)"; run = churn_scenario };
    { name = "bounded state store"; run = state_scenario };
  ]

let bench_runtime () =
  section "Runtime benchmark -> BENCH_runtime.json";
  let sc = if !smoke then smoke_scale else full_scale in
  let workload = mixed_workload sc.packets in
  Format.printf
    "%d packets (%d green/orange, %d red via LB + CPU), %d-prefix FIB, %d \
     timing rounds (wall = fastest round)@."
    sc.packets
    (sc.packets - (sc.packets / 4))
    (sc.packets / 4) fib_prefixes sc.rounds;
  let blocks =
    List.concat_map
      (fun s ->
        Format.printf "@.-- %s@." s.name;
        let dt, members = clock (fun () -> s.run sc workload) in
        Format.printf "(%s: %.1fs)@." s.name dt;
        members)
      runtime_scenarios
  in
  write_bench "runtime"
    ([
       ("packets", J.Int sc.packets);
       ("fib_prefixes", J.Int fib_prefixes);
       ("runs", J.Int sc.rounds);
       ("smoke", J.Bool !smoke);
     ]
    @ blocks)

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
  let args = List.tl (Array.to_list Sys.argv) in
  smoke := List.mem "--smoke" args;
  (* Every argument after [micro] names one of its rows. *)
  let rec experiment_names = function
    | "micro" :: rows ->
        micro_rows := rows;
        [ "micro" ]
    | n :: rest -> n :: experiment_names rest
    | [] -> []
  in
  let to_run =
    match experiment_names (List.filter (fun a -> a <> "--smoke") args) with
    | [] -> List.map snd experiments
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> f
            | None ->
                Format.printf
                  "unknown experiment %S (have: %s; micro takes row names; option: --smoke)@." n
                  (String.concat ", " (List.map fst experiments));
                exit 2)
          names
  in
  List.iter (fun f -> f ()) to_run
