(* The dejavu command-line tool: compile the edge-cloud deployment onto
   the modeled ASIC, inspect placements and generated programs, and push
   packets through chains.

     dejavu compile [--strategy greedy] [--extended]
     dejavu send --dst 10.0.1.10 [--src ...] [--trace]
     dejavu run [--packets 200] [--domains 4] [--cache [--cache-capacity N]]
     dejavu churn [--ops 10000] [--op-batch 50] [--domains 2] [--cache]
     dejavu programs [--pipelet "ingress 0"]
     dejavu report
     dejavu strategies
     dejavu place [--domains 4] [--seeds 1,2,3] *)

open Dejavu_core

let strategy_conv =
  let parse = function
    | "naive" -> Ok Placement.Naive
    | "greedy" -> Ok Placement.Greedy
    | "anneal" -> Ok Placement.default_anneal
    | "exhaustive" -> Ok Placement.Exhaustive
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  let print ppf s = Placement.pp_strategy ppf s in
  Cmdliner.Arg.conv (parse, print)

let strategy_arg =
  Cmdliner.Arg.(
    value
    & opt strategy_conv Placement.Exhaustive
    & info [ "strategy"; "s" ] ~docv:"STRATEGY"
        ~doc:"Placement strategy: naive, greedy, anneal or exhaustive.")

let extended_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "extended" ]
        ~doc:"Include the monitoring chain (mirror tap + DSCP marker).")

let compile ~strategy ~extended =
  Compiler.compile (Nflib.Catalog.edge_cloud_input ~strategy ~extended ())

let or_die = function
  | Ok v -> v
  | Error e ->
      Format.eprintf "error: %s@." e;
      exit 1

(* --- compile ------------------------------------------------------- *)

let compile_cmd =
  let run strategy extended =
    let compiled = or_die (compile ~strategy ~extended) in
    Format.printf "%a@." Compiler.pp_summary compiled;
    Format.printf "branching entries:@.";
    List.iter
      (fun e -> Format.printf "  %a@." Branching.pp_entry e)
      compiled.Compiler.plan.Branching.branching
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "compile" ~doc:"Compile the Fig. 2 deployment and show the placement.")
    Cmdliner.Term.(const run $ strategy_arg $ extended_arg)

(* --- report -------------------------------------------------------- *)

let report_cmd =
  let run strategy extended =
    let compiled = or_die (compile ~strategy ~extended) in
    Format.printf "%a@." Compiler.pp_report (Compiler.framework_report compiled)
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "report"
       ~doc:"Print the Dejavu framework resource overhead (Table 1).")
    Cmdliner.Term.(const run $ strategy_arg $ extended_arg)

(* --- programs ------------------------------------------------------ *)

let programs_cmd =
  let pipelet_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "pipelet" ] ~docv:"PIPELET"
          ~doc:"Only this pipelet, e.g. \"ingress 0\" or \"egress 1\".")
  in
  let run strategy extended which =
    let compiled = or_die (compile ~strategy ~extended) in
    List.iter
      (fun ((id : Asic.Pipelet.id), (b : Compose.built)) ->
        let name = Format.asprintf "%a" Asic.Pipelet.pp_id id in
        if match which with None -> true | Some w -> String.equal w name then begin
          Format.printf "/* ------------ %s ------------ */@." name;
          Format.printf "%a@.@." P4ir.Program.pp b.Compose.program
        end)
      compiled.Compiler.built
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "programs"
       ~doc:"Dump the generated (pseudo-P4) pipelet programs.")
    Cmdliner.Term.(const run $ strategy_arg $ extended_arg $ pipelet_arg)

(* --- send ---------------------------------------------------------- *)

let ip_conv =
  Cmdliner.Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (Netpkt.Ip4.of_string s)),
      Netpkt.Ip4.pp )

let send_cmd =
  let dst_arg =
    Cmdliner.Arg.(
      required
      & opt (some ip_conv) None
      & info [ "dst" ] ~docv:"IP" ~doc:"Destination address.")
  in
  let src_arg =
    Cmdliner.Arg.(
      value
      & opt ip_conv (Netpkt.Ip4.of_string_exn "203.0.113.10")
      & info [ "src" ] ~docv:"IP" ~doc:"Source address.")
  in
  let dport_arg =
    Cmdliner.Arg.(
      value & opt int 80 & info [ "dport" ] ~docv:"PORT" ~doc:"Destination port.")
  in
  let in_port_arg =
    Cmdliner.Arg.(
      value & opt int 0 & info [ "in-port" ] ~docv:"N" ~doc:"Switch input port.")
  in
  let trace_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Print the MAU-level trace: each pipelet pass of the packet's \
             journey, CPU round trips included, with its table, gateway \
             and NF events.")
  in
  let run strategy extended dst src dport in_port trace =
    let compiled = or_die (compile ~strategy ~extended) in
    (* The chip records each pass's control events for the journey
       recorder only: the trace is the packet's journey, every walk of
       it, CPU round trips included. *)
    let engine =
      {
        Runtime.Engine.default with
        telemetry =
          (if trace then Telemetry.Level.Journeys else Telemetry.Level.Off);
      }
    in
    let rt = Runtime.create ~engine compiled in
    Nflib.Catalog.attach_handlers rt compiled;
    let pkt =
      Netpkt.Pkt.tcp_flow
        ~src_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:01")
        ~dst_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:02")
        {
          Netpkt.Flow.src = src;
          dst;
          proto = Netpkt.Ipv4.proto_tcp;
          src_port = 40000;
          dst_port = dport;
        }
    in
    let sent = Ptf.send rt ~in_port pkt in
    Option.iter
      (fun o ->
        List.iter (Format.printf "%a" Telemetry.Journey.pp_trace) (Observe.journeys o))
      (Runtime.telemetry rt);
    match sent with
    | Error e ->
        Format.eprintf "error: %s@." e;
        exit 1
    | Ok o ->
        Format.printf "verdict: %s@."
          (match o.Ptf.runtime.Runtime.verdict with
          | Asic.Chip.Emitted { port; _ } -> Printf.sprintf "emitted on port %d" port
          | Asic.Chip.Dropped -> "dropped"
          | Asic.Chip.To_cpu _ -> "to CPU");
        let c = o.Ptf.runtime.Runtime.counters in
        Format.printf
          "recirculations=%d resubmissions=%d cpu-round-trips=%d latency=%.0f ns@."
          c.Runtime.Counters.recircs c.Runtime.Counters.resubmits
          c.Runtime.Counters.cpu_round_trips c.Runtime.Counters.latency_ns;
        Option.iter (Format.printf "packet out: %a@." Netpkt.Pkt.pp) o.Ptf.decoded
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "send" ~doc:"Push one packet through the deployment.")
    Cmdliner.Term.(
      const run $ strategy_arg $ extended_arg $ dst_arg $ src_arg $ dport_arg
      $ in_port_arg $ trace_arg)

(* --- place ---------------------------------------------------------- *)

let place_cmd =
  let domains_arg =
    Cmdliner.Arg.(
      value & opt int 4
      & info [ "domains" ] ~docv:"N"
          ~doc:"Domains in the restart pool (1 = sequential).")
  in
  let seeds_arg =
    Cmdliner.Arg.(
      value
      & opt (list int) [ 1; 2; 3; 4; 5; 6 ]
      & info [ "seeds" ] ~docv:"S1,S2,..."
          ~doc:"Annealing seeds, one independent restart each.")
  in
  let iterations_arg =
    Cmdliner.Arg.(
      value & opt int 4000
      & info [ "iterations" ] ~docv:"N" ~doc:"Annealing iterations per restart.")
  in
  let run extended domains seeds iterations =
    let input =
      Nflib.Catalog.edge_cloud_input ~strategy:Placement.default_anneal
        ~extended ()
    in
    let pinput = or_die (Compiler.placement_input input) in
    let result =
      or_die (Placement.solve_parallel ~iterations ~domains ~seeds pinput)
    in
    Format.printf "restarts (%d domains):@." domains;
    List.iter
      (fun (r : Placement.restart) ->
        match r.Placement.cost with
        | Some c -> Format.printf "  seed %-4d cost %.3f@." r.Placement.seed c
        | None -> Format.printf "  seed %-4d infeasible@." r.Placement.seed)
      result.Placement.restarts;
    Format.printf "best (cost %.3f):@.%a@." result.Placement.cost Layout.pp
      result.Placement.layout
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "place"
       ~doc:
         "Anneal the deployment's placement with parallel seeded restarts \
          and print the per-seed costs and the best layout.")
    Cmdliner.Term.(
      const run $ extended_arg $ domains_arg $ seeds_arg $ iterations_arg)

(* --- cluster -------------------------------------------------------- *)

let cluster_cmd =
  let switches_arg =
    Cmdliner.Arg.(
      value & opt int 2
      & info [ "switches"; "n" ] ~docv:"N" ~doc:"Cluster size (linear chain).")
  in
  let nfs_arg =
    Cmdliner.Arg.(
      value & opt int 12
      & info [ "nfs" ] ~docv:"M" ~doc:"Length of the synthetic chain.")
  in
  let stages_arg =
    Cmdliner.Arg.(
      value & opt int 2
      & info [ "stages" ] ~docv:"S" ~doc:"MAU stages per synthetic NF.")
  in
  let run n_switches n_nfs stages =
    let spec = Asic.Spec.wedge_100b in
    let c = Cluster.make ~spec ~n_switches () in
    let chain = List.init n_nfs (fun i -> Printf.sprintf "nf%02d" i) in
    let exit_port = Cluster.port c ~switch:(n_switches - 1) ~port:1 in
    let chains =
      [ Chain.make ~path_id:1 ~name:"chain" ~nfs:chain ~exit_port () ]
    in
    let resources_of _ = { P4ir.Resources.zero with P4ir.Resources.stages } in
    match
      Cluster.place c ~resources_of ~chains ~pinned:[]
        (Cluster.Anneal { iterations = 2000; seed = 1 })
    with
    | Error e ->
        Format.eprintf "placement failed: %s@." e;
        exit 1
    | Ok (layout, cost) -> (
        Format.printf "placement (cost %.2f):@.%a@." cost Layout.pp layout;
        match
          Traversal.solve ~switches:n_switches (Cluster.chip c) layout
            ~entry_pipeline:0 ~exit_port chain
        with
        | None -> Format.printf "unroutable@."
        | Some p ->
            Format.printf "%a@.latency: %.0f ns@." Traversal.pp_path p
              (Model.chain_latency_ns ~cable_m:c.Cluster.cable_m (Cluster.chip c) p))
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "cluster"
       ~doc:"Place a synthetic chain on a multi-switch cluster (Sec. 7).")
    Cmdliner.Term.(const run $ switches_arg $ nfs_arg $ stages_arg)

(* --- shared workload ------------------------------------------------ *)

(* The mixed green/orange/red workload used by `stats` and `run`. *)
let mixed_workload packets =
  let ip = Netpkt.Ip4.of_string_exn in
  let flow ~src ~dst ~src_port ~dst_port =
    Netpkt.Pkt.encode
      (Netpkt.Pkt.tcp_flow
         ~src_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:01")
         ~dst_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:02")
         {
           Netpkt.Flow.src = ip src;
           dst;
           proto = Netpkt.Ipv4.proto_tcp;
           src_port;
           dst_port;
         })
  in
  List.init packets (fun i ->
      let frame =
        match i mod 3 with
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
      in
      (0, frame))

let packets_arg =
  Cmdliner.Arg.(
    value & opt int 200
    & info [ "packets" ] ~docv:"N"
        ~doc:"Packets in the mixed green/orange/red workload.")

(* One engine-knob vocabulary for every traffic-driving command
   (run/churn/stats/top): --domains, --cache/--cache-capacity,
   --state/--state-capacity all parse here, into one
   [Runtime.Engine.t]. Only the domains default differs per command. *)
let engine_term ?(default_domains = 1) () =
  let domains_arg =
    Cmdliner.Arg.(
      value & opt int default_domains
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker domains for the sharded data plane (1 = sequential \
             in-place execution).")
  in
  let cache_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "cache" ]
          ~doc:
            "Enable the per-shard exact-match flow cache (whole-chain verdict \
             memoization).")
  in
  let cache_capacity_arg =
    Cmdliner.Arg.(
      value & opt int 65536
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Flow-cache capacity in entries (with --cache).")
  in
  let state_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "state" ]
          ~doc:
            "Enable the bounded per-shard state store behind the stateful \
             NFs (LRU eviction; evictions delete the matching chip \
             entries).")
  in
  let state_capacity_arg =
    Cmdliner.Arg.(
      value & opt int 65536
      & info [ "state-capacity" ] ~docv:"N"
          ~doc:"State-store capacity per table, in entries (with --state).")
  in
  let mk domains cache cache_capacity state state_capacity =
    {
      Runtime.Engine.default with
      Runtime.Engine.domains;
      cache =
        (if cache then Runtime.Engine.Emc { capacity = cache_capacity }
         else Runtime.Engine.Off);
      state =
        (if state then
           Runtime.Engine.Bounded { capacity = state_capacity; ttl_ns = 0L }
         else Runtime.Engine.No_state);
    }
  in
  Cmdliner.Term.(
    const mk $ domains_arg $ cache_arg $ cache_capacity_arg $ state_arg
    $ state_capacity_arg)

let print_cache_stats rt =
  match Runtime.flow_cache rt with
  | None -> ()
  | Some c ->
      let s = Flow_cache.stats c in
      Format.printf
        "cache: hits=%d misses=%d hit-rate=%.1f%% inserts=%d evictions=%d \
         invalidations=%d uncacheable=%d entries=%d/%d@."
        s.Flow_cache.hits s.Flow_cache.misses
        (100.0 *. Flow_cache.hit_rate c)
        s.Flow_cache.inserts s.Flow_cache.evictions
        s.Flow_cache.invalidations s.Flow_cache.uncacheable
        (Flow_cache.length c) (Flow_cache.capacity c)

let print_state_stats rt =
  match Runtime.state_stores rt with
  | [||] -> ()
  | stores ->
      let cap = (State_store.config stores.(0)).State_store.capacity in
      List.iter
        (fun (name, occ, (s : State_store.table_stats)) ->
          Format.printf
            "state %-14s entries=%d/%d (x%d shards) hits=%d misses=%d \
             inserts=%d evictions=%d expirations=%d@."
            name occ cap (Array.length stores) s.State_store.hits
            s.State_store.misses s.State_store.inserts s.State_store.evictions
            s.State_store.expirations)
        (State_store.totals stores)

let print_batch_errors (stats : Runtime.batch_stats) =
  if stats.Runtime.error_log <> [] then begin
    Format.eprintf "batch errors (%d):@." stats.Runtime.errors;
    List.iter
      (fun (port, msg) -> Format.eprintf "  in_port=%d %s@." port msg)
      stats.Runtime.error_log;
    if stats.Runtime.suppressed > 0 then
      Format.eprintf "  ... and %d more suppressed (first %d kept)@."
        stats.Runtime.suppressed
        (List.length stats.Runtime.error_log)
  end

(* --- run ------------------------------------------------------------ *)

let run_cmd =
  let run strategy extended packets engine =
    let compiled = or_die (compile ~strategy ~extended) in
    let rt = Runtime.create ~engine compiled in
    Nflib.Catalog.attach_handlers rt compiled;
    let stats = Runtime.process_batch_parallel rt (mixed_workload packets) in
    print_batch_errors stats;
    let c = stats.Runtime.counters in
    Format.printf
      "domains=%d packets=%d emitted=%d dropped=%d to-cpu=%d errors=%d@."
      engine.Runtime.Engine.domains stats.Runtime.packets stats.Runtime.emitted
      stats.Runtime.dropped stats.Runtime.to_cpu stats.Runtime.errors;
    Format.printf
      "cpu-round-trips=%d recirculations=%d resubmissions=%d digest=%08Lx@."
      c.Runtime.Counters.cpu_round_trips c.Runtime.Counters.recircs
      c.Runtime.Counters.resubmits stats.Runtime.digest;
    print_cache_stats rt;
    print_state_stats rt
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "run"
       ~doc:
         "Push the sample workload through the deployment, optionally \
          sharded over several domains.")
    Cmdliner.Term.(
      const run $ strategy_arg $ extended_arg $ packets_arg $ engine_term ())

(* --- churn ---------------------------------------------------------- *)

let churn_cmd =
  let ops_arg =
    Cmdliner.Arg.(
      value & opt int 10_000
      & info [ "ops" ] ~docv:"N"
          ~doc:"Length of the BGP-style churn trace (add/mod/del mix).")
  in
  let op_batch_arg =
    Cmdliner.Arg.(
      value & opt int 50
      & info [ "op-batch" ] ~docv:"N"
          ~doc:"Ops applied per control-plane batch.")
  in
  let seed_arg =
    Cmdliner.Arg.(
      value & opt int 0x5eed
      & info [ "seed" ] ~docv:"SEED" ~doc:"Churn-trace random seed.")
  in
  let run strategy extended ops op_batch seed packets engine =
    if ops <= 0 || op_batch <= 0 || packets <= 0 then begin
      Format.eprintf "error: --ops, --op-batch and --packets must be \
                      positive@.";
      exit 2
    end;
    let domains = engine.Runtime.Engine.domains in
    let cache = engine.Runtime.Engine.cache <> Runtime.Engine.Off in
    let mk () =
      let compiled = or_die (compile ~strategy ~extended) in
      let rt = Runtime.create ~engine compiled in
      Nflib.Catalog.attach_handlers rt compiled;
      rt
    in
    let trace = Nflib.Catalog.fib_churn_trace ~seed ~n:ops () in
    let batches =
      let rec split acc cur k = function
        | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
        | op :: rest ->
            if k = op_batch then split (List.rev cur :: acc) [ op ] 1 rest
            else split acc (op :: cur) (k + 1) rest
      in
      split [] [] 0 trace
    in
    let traffic = mixed_workload packets in
    (* Live: each op batch is applied between packet batches, so
       updates land while traffic keeps flowing. *)
    let rt = mk () in
    let t0 = Unix.gettimeofday () in
    let failed =
      List.concat
        (List.mapi
           (fun i ops ->
             let r = Runtime.apply_ops rt ops in
             ignore (Runtime.process_batch_parallel rt traffic);
             match r with Ok _ -> [] | Error e -> [ (i, e) ])
           batches)
    in
    let wall = Unix.gettimeofday () -. t0 in
    List.iter (fun (i, e) -> Format.eprintf "batch %d failed: %s@." i e) failed;
    (* Cold oracle: a fresh runtime, the same trace, no traffic. *)
    let cold = mk () in
    (match Runtime.apply_ops cold trace with
    | Ok _ -> ()
    | Error e ->
        Format.eprintf "error: cold apply failed: %s@." e;
        exit 1);
    (* Only the tables the trace writes: traffic also fills tables at
       packet time (the LB's punts install sessions), and the cold
       oracle carries none. *)
    let written =
      List.sort_uniq String.compare
        (List.filter_map
           (function Ctrl.Table (name, _) -> Some name | Ctrl.Reg_reset _ -> None)
           trace)
    in
    let entries rt name =
      match Asic.Chip.find_table (Runtime.chip rt) name with
      | Some tbl -> P4ir.Table.entries tbl
      | None -> []
    in
    let compared =
      List.map
        (fun name ->
          let live = entries rt name and cold = entries cold name in
          (name, List.length live, List.length cold, live = cold))
        written
    in
    let identical = List.for_all (fun (_, _, _, same) -> same) compared in
    let ok = failed = [] && identical in
    Format.printf
      "churn: %d ops in %d batches of <=%d, %d pkts of traffic per batch, \
       domains=%d cache=%b@."
      ops (List.length batches) op_batch packets domains cache;
    Format.printf "wall=%.2fms (%.0f ops/s incl. traffic)@." (wall *. 1000.0)
      (float_of_int ops /. wall);
    print_cache_stats rt;
    List.iter
      (fun (name, live, cold, same) ->
        Format.printf "state %s: live=%d cold=%d entries identical=%b@." name
          live cold same)
      compared;
    print_state_stats rt;
    if not ok then begin
      Format.eprintf
        "error: live-applied state diverges from the cold-built oracle@.";
      exit 1
    end
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "churn"
       ~doc:
         "Replay a BGP-style table-update trace through the live control \
          plane while traffic flows, and verify the final state against a \
          cold-built runtime.")
    Cmdliner.Term.(
      const run $ strategy_arg $ extended_arg $ ops_arg $ op_batch_arg
      $ seed_arg $ packets_arg $ engine_term ~default_domains:2 ())

(* --- stats ---------------------------------------------------------- *)

let stats_cmd =
  let level_conv =
    Cmdliner.Arg.conv
      ( (fun s ->
          Result.map_error (fun e -> `Msg e) (Telemetry.Level.of_string s)),
        Telemetry.Level.pp )
  in
  let level_arg =
    Cmdliner.Arg.(
      value
      & opt level_conv Telemetry.Level.Counters
      & info [ "level" ] ~docv:"LEVEL"
          ~doc:"Instrumentation level: counters or journeys.")
  in
  let json_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the registry as JSON instead of a table.")
  in
  let journeys_arg =
    Cmdliner.Arg.(
      value & opt int 0
      & info [ "journeys" ] ~docv:"K"
          ~doc:
            "Also print the last K packet journeys from the flight recorder \
             (implies --level journeys).")
  in
  let entries_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "entries" ] ~doc:"Also print per-entry hit counts (hit > 0).")
  in
  let prometheus_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:
            "Print the registry snapshot as Prometheus text exposition \
             (counters, histograms with cumulative buckets) and nothing \
             else. The output is self-validated through the exposition \
             parser before printing.")
  in
  let jsonl_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "jsonl" ]
          ~doc:
            "Print the registry snapshot as JSON lines (one metric object \
             per line) and nothing else.")
  in
  let postcards_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "postcards" ]
          ~doc:
            "Also print the INT per-flow summaries of every packet's hop \
             records (implies --level journeys).")
  in
  let run strategy extended packets level json n_journeys entries engine
      prometheus jsonl postcards =
    let compiled = or_die (compile ~strategy ~extended) in
    let level =
      if n_journeys > 0 || postcards then Telemetry.Level.Journeys else level
    in
    let rt =
      Runtime.create ~engine:{ engine with Runtime.Engine.telemetry = level }
        compiled
    in
    Nflib.Catalog.attach_handlers rt compiled;
    let stats = Runtime.process_batch_parallel rt (mixed_workload packets) in
    print_batch_errors stats;
    if prometheus || jsonl then begin
      (* Machine-readable modes print the export and nothing else. *)
      let snap =
        match Runtime.snapshot rt with
        | Some s -> s
        | None ->
            Format.eprintf "error: telemetry is off@.";
            exit 1
      in
      if prometheus then begin
        let text = Telemetry.Export.prometheus snap in
        match Telemetry.Export.parse_prometheus text with
        | Ok _ -> print_string text
        | Error e ->
            Format.eprintf
              "error: generated exposition failed its own parser: %s@." e;
            exit 1
      end
      else print_string (Telemetry.Export.json_lines snap)
    end
    else
    match Runtime.telemetry rt with
    | None -> ()
    | Some o ->
        let chip = Runtime.chip rt in
        (* Sync the snapshot-time gauges (cache occupancy, INT sink
           sizes) so the table shows them too. *)
        ignore (Runtime.snapshot rt);
        if json then print_string (Observe.json o chip ^ "\n")
        else Format.printf "%t@." (fun ppf -> Observe.pp ppf o chip);
        if entries then begin
          Format.printf "@.per-entry hits (hit > 0):@.";
          List.iter
            (fun (where, hits) ->
              List.iteri
                (fun i ((e : P4ir.Table.entry), n) ->
                  if n > 0 then
                    Format.printf "  %-40s entry %-3d %-16s %8d@." where i
                      e.P4ir.Table.action n)
                hits)
            (Observe.table_entry_hits chip)
        end;
        if n_journeys > 0 then begin
          let js = Observe.journeys o in
          let len = List.length js in
          let js = List.filteri (fun i _ -> i >= len - n_journeys) js in
          if json then
            print_string (Telemetry.Journey.list_to_json js ^ "\n")
          else begin
            Format.printf "@.flight recorder (last %d of %d captured):@."
              (List.length js)
              (Telemetry.Ring.pushed (Observe.ring o));
            List.iter (Format.printf "%a@." Telemetry.Journey.pp) js
          end
        end;
        (if postcards then
           match Runtime.int_sink rt with
           | None -> ()
           | Some sink ->
               if json then
                 print_string (Telemetry.Int_report.to_json sink ^ "\n")
               else
                 Format.printf "@.INT postcards per flow:@.%a@."
                   Telemetry.Int_report.pp_summaries sink);
        print_cache_stats rt;
        print_state_stats rt
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "stats"
       ~doc:
         "Run a sample workload with telemetry on and print the metrics \
          registry (and optionally the packet flight recorder, INT \
          per-flow postcards, or a Prometheus/JSON-lines export).")
    Cmdliner.Term.(
      const run $ strategy_arg $ extended_arg $ packets_arg $ level_arg
      $ json_arg $ journeys_arg $ entries_arg $ engine_term ()
      $ prometheus_arg $ jsonl_arg $ postcards_arg)

(* --- top ------------------------------------------------------------ *)

let top_cmd =
  let batches_arg =
    Cmdliner.Arg.(
      value & opt int 20
      & info [ "batches" ] ~docv:"N" ~doc:"Batches to run before exiting.")
  in
  let window_arg =
    Cmdliner.Arg.(
      value & opt int 8
      & info [ "window" ] ~docv:"K"
          ~doc:"Snapshots retained for the rate window.")
  in
  let run strategy extended packets batches window engine =
    if batches < 1 || packets < 1 then begin
      Format.eprintf "error: --batches and --packets must be positive@.";
      exit 2
    end;
    let domains = engine.Runtime.Engine.domains in
    let cache = engine.Runtime.Engine.cache <> Runtime.Engine.Off in
    let compiled = or_die (compile ~strategy ~extended) in
    let rt =
      Runtime.create
        ~engine:
          { engine with Runtime.Engine.telemetry = Telemetry.Level.Counters }
        compiled
    in
    Nflib.Catalog.attach_handlers rt compiled;
    let w = Telemetry.Export.Window.create ~capacity:window in
    let traffic = mixed_workload packets in
    let tty = Unix.isatty Unix.stdout in
    for b = 1 to batches do
      let stats = Runtime.process_batch_parallel rt traffic in
      let snap =
        match Runtime.snapshot rt with Some s -> s | None -> assert false
      in
      Telemetry.Export.Window.push w ~now_ns:(Telemetry.Tclock.now_ns ()) snap;
      if tty then print_string "\027[2J\027[H";
      Format.printf "dejavu top — batch %d/%d  %d pkts/batch  domains=%d%s@."
        b batches packets domains
        (if cache then "  cache=on" else "");
      (match Telemetry.Export.Window.rates w with
      | [] -> Format.printf "  (gathering: rates need two snapshots)@."
      | rates ->
          Format.printf "  window: %d snapshots over %.3fs@."
            (Telemetry.Export.Window.length w)
            (Int64.to_float (Telemetry.Export.Window.span_ns w) /. 1e9);
          List.iter
            (fun (name, r) ->
              if r > 0.0 then Format.printf "  %-44s %14.0f/s@." name r)
            rates);
      if stats.Runtime.errors > 0 then
        Format.printf "  errors this batch: %d@." stats.Runtime.errors;
      if tty then flush stdout
    done;
    print_cache_stats rt;
    print_state_stats rt
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "top"
       ~doc:
         "Live view: run the sample workload batch after batch and redraw \
          per-second counter rates computed over a sliding snapshot \
          window.")
    Cmdliner.Term.(
      const run $ strategy_arg $ extended_arg $ packets_arg $ batches_arg
      $ window_arg $ engine_term ())

(* --- strategies ---------------------------------------------------- *)

let strategies_cmd =
  let run extended =
    Format.printf "%-12s %10s@." "strategy" "objective";
    List.iter
      (fun (name, strategy) ->
        match compile ~strategy ~extended with
        | Error e -> Format.printf "%-12s failed: %s@." name e
        | Ok compiled ->
            Format.printf "%-12s %10.3f@." name compiled.Compiler.objective)
      [
        ("naive", Placement.Naive);
        ("greedy", Placement.Greedy);
        ("anneal", Placement.default_anneal);
        ("exhaustive", Placement.Exhaustive);
      ]
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "strategies"
       ~doc:"Compare placement strategies on the deployment.")
    Cmdliner.Term.(const run $ extended_arg)

let () =
  let info =
    Cmdliner.Cmd.info "dejavu" ~version:"1.0.0"
      ~doc:"Accelerated service chaining on a (modeled) single switch ASIC."
  in
  exit
    (Cmdliner.Cmd.eval
       (Cmdliner.Cmd.group info
          [
            compile_cmd; report_cmd; programs_cmd; send_cmd; strategies_cmd;
            place_cmd; cluster_cmd; stats_cmd; top_cmd; run_cmd; churn_cmd;
          ]))
