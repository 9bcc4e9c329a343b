(* Reproduction harness: one section per table/figure of the paper's
   evaluation, plus the ablations from DESIGN.md and bechamel
   microbenchmarks of the library itself.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig8a   # one experiment
     dune exec bench/main.exe -- runtime --smoke   # CI's timing gate
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
      switches = 1;
      resources_of = (fun _ -> { P4ir.Resources.zero with P4ir.Resources.stages = 1 });
      chains = [ Chain.make ~path_id:1 ~name:"af" ~nfs:chain ~exit_port:1 () ];
      entry_pipeline = 0;
      pinned = [];
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
      match Compose.build ~generic_parser ~id ~layout ~nf_of with
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
  let resources_of _ = { P4ir.Resources.zero with P4ir.Resources.stages = 2 } in
  Format.printf "a 16-NF chain (2 MAU stages per NF) across cluster sizes:@.@.";
  Format.printf "%10s %10s %8s %8s %12s@." "switches" "placed?" "recircs"
    "hops" "latency";
  List.iter
    (fun n ->
      let c = Cluster.make ~spec ~n_switches:n () in
      let exit_port = Cluster.port c ~switch:(n - 1) ~port:1 in
      let chains = [ Chain.make ~path_id:1 ~name:"big" ~nfs:chain ~exit_port () ] in
      match
        Cluster.place c ~resources_of ~chains ~pinned:[]
          (Cluster.Anneal { iterations = 1500; seed = 7 })
      with
      | Error _ -> Format.printf "%10d %10s %8s %8s %12s@." n "no" "-" "-" "-"
      | Ok (layout, _) -> (
          match
            Traversal.solve ~switches:n (Cluster.chip c) layout ~entry_pipeline:0
              ~exit_port chain
          with
          | None -> Format.printf "%10d %10s (unroutable)@." n "yes"
          | Some p ->
              Format.printf "%10d %10s %8d %8d %9.0f ns@." n "yes"
                p.Traversal.recircs p.Traversal.hops
                (Model.chain_latency_ns ~cable_m:c.Cluster.cable_m (Cluster.chip c) p)))
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
(* The bench harness: one gate, shared by the placement benchmark and  *)
(* the runtime's timing gates, and the placement benchmark's JSON      *)
(* writer, over the one timing discipline ([time_rounds], beside       *)
(* [clock] above).                                                     *)
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

(* A --smoke run writes BENCH_<name>.smoke.json, so only a full run
   replaces the committed BENCH_<name>.json. *)
let write_bench name members =
  let file = Printf.sprintf "BENCH_%s%s.json" name (if !smoke then ".smoke" else "") in
  let oc = open_out file in
  output_string oc
    (J.to_string ~pretty:true (J.Obj (("benchmark", J.String name) :: members)));
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote %s@." file

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
      switches = 1;
      resources_of =
        (fun _ -> { P4ir.Resources.zero with P4ir.Resources.stages = 1 });
      chains;
      entry_pipeline = 0;
      pinned = [];
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
(* The runtime's two timing gates. Every other runtime gate is a test   *)
(* in dune runtest; these two compare wall times, which a test suite    *)
(* sharing its host with other suites cannot hold. Prints, writes no    *)
(* file.                                                                *)
(* ------------------------------------------------------------------ *)

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

(* Both gates run at both scales and print; each gates at the scale
   where its bound holds. Counters overhead: the fast path against
   itself at [Counters], gated at 15% at smoke scale (the budget is
   5%). domains:1 drift: [process_batch_parallel ~domains:1] is
   [process_batch] by construction, so more than 10% between them
   means the two are timed under different disciplines; 200-packet
   batches are too short to hold that band, so it gates at full scale
   only. Each figure is the median per-round ratio ([median_ratio]). *)
let bench_runtime () =
  section "Runtime timing gates";
  let packets, rounds = if !smoke then (200, 15) else (4000, 7) in
  let workload = mixed_workload packets in
  Format.printf "%d packets of the four-class mix, %d rounds@." packets rounds;
  let fast = Runtime.Engine.default in
  (* A timed side: a fresh deployment on [engine]; the clock covers one
     batch of the workload. *)
  let batch ?(parallel = false) engine () =
    let rt = deploy ~engine () in
    fun () ->
      if parallel then Runtime.process_batch_parallel rt workload
      else Runtime.process_batch rt workload
  in
  let pct (a, _) (b, _) = 100.0 *. (median_ratio a b -. 1.0) in
  let fast_s, counters_s =
    time_pair ~rounds (batch fast)
      (batch { fast with Runtime.Engine.telemetry = Telemetry.Level.Counters })
  in
  let overhead = pct counters_s fast_s in
  Format.printf "Counters overhead vs fast: %+.1f%% (budget 5%%)@." overhead;
  if !smoke then gate "Counters overhead <= 15% (smoke)" (overhead <= 15.0);
  let fast_s, d1_s = time_pair ~rounds (batch fast) (batch ~parallel:true fast) in
  let drift = Float.abs (pct d1_s fast_s) in
  Format.printf "domains:1 vs sequential fast: drift %.1f%%@." drift;
  if not !smoke then gate "domains:1 within 10% of sequential fast" (drift <= 10.0)

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
