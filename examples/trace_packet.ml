(* Trace every table application and gateway decision a packet sees on
   its way through the compiled service chain — the tool you want when a
   chain misbehaves. The runtime records the packet's journey: one hop
   per pipelet pass, every chip walk of it, CPU round trips included.
   Exits 1 when the journey records no table application.

   Run with: dune exec examples/trace_packet.exe -- [dst-ip] *)

open Dejavu_core

let ip = Netpkt.Ip4.of_string_exn
let mac = Netpkt.Mac.of_string_exn

let () =
  let dst =
    if Array.length Sys.argv > 1 then ip Sys.argv.(1)
    else Nflib.Catalog.tenant1_vip
  in
  let input = Nflib.Catalog.edge_cloud_input () in
  let compiled = Result.get_ok (Compiler.compile input) in
  let rt =
    Runtime.create
      ~engine:{ Runtime.Engine.default with telemetry = Telemetry.Level.Journeys }
      compiled
  in
  Nflib.Catalog.attach_handlers rt compiled;
  let flow =
    {
      Netpkt.Flow.src = ip "203.0.113.9";
      dst;
      proto = Netpkt.Ipv4.proto_tcp;
      src_port = 5555;
      dst_port = 80;
    }
  in
  let pkt =
    Netpkt.Pkt.tcp_flow ~src_mac:(mac "02:11:22:33:44:66")
      ~dst_mac:(mac "02:00:00:00:00:fe") flow
  in
  Format.printf "tracing %a@.@." Netpkt.Flow.pp_five_tuple flow;
  let res = Runtime.process rt ~in_port:0 (Netpkt.Pkt.encode pkt) in
  let journeys = Observe.journeys (Option.get (Runtime.telemetry rt)) in
  List.iter (Format.printf "%a@." Telemetry.Journey.pp_trace) journeys;
  (match res with
  | Error e -> Format.printf "error: %s@." e
  | Ok o ->
      let c = o.Runtime.counters in
      Format.printf
        "verdict: %s  cpu-round-trips=%d recircs=%d resubmits=%d latency=%.0f ns@."
        (match o.Runtime.verdict with
        | Asic.Chip.Emitted { port; _ } -> Printf.sprintf "emitted on port %d" port
        | Asic.Chip.Dropped -> "dropped"
        | Asic.Chip.To_cpu _ -> "sent to the control plane")
        c.Runtime.Counters.cpu_round_trips c.Runtime.Counters.recircs
        c.Runtime.Counters.resubmits c.Runtime.Counters.latency_ns);
  let tables =
    List.concat_map
      (fun (j : Telemetry.Journey.t) ->
        List.concat_map Telemetry.Journey.tables j.Telemetry.Journey.hops)
      journeys
  in
  if tables = [] then begin
    Format.eprintf "trace_packet: the journey recorded no table application@.";
    exit 1
  end
