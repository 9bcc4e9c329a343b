(* Control-plane runtime tests: CPU-mark clearing, NF id derivation,
   and the LB miss/install/reinject loop. *)

open Dejavu_core

let check = Alcotest.check

let test_default_nf_id_stable () =
  check Alcotest.int "stable across calls" (Runtime.default_nf_id "lb")
    (Runtime.default_nf_id "lb");
  check Alcotest.bool "distinct for distinct names" true
    (Runtime.default_nf_id "lb" <> Runtime.default_nf_id "fw");
  check Alcotest.bool "nonzero" true (Runtime.default_nf_id "lb" <> 0);
  check Alcotest.bool "fits the 16-bit context value" true
    (Runtime.default_nf_id "classifier" <= 0xFFFF)

let sfc_frame hdr =
  let tail =
    Netpkt.Pkt.tcp_flow
      ~src_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:01")
      ~dst_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:02")
      {
        Netpkt.Flow.src = Netpkt.Ip4.of_string_exn "192.0.2.1";
        dst = Netpkt.Ip4.of_string_exn "10.0.1.10";
        proto = Netpkt.Ipv4.proto_tcp;
        src_port = 1;
        dst_port = 2;
      }
  in
  Netpkt.Pkt.encode
    (Netpkt.Pkt.Eth
       (Netpkt.Eth.make ~dst:(Netpkt.Mac.of_string_exn "02:00:00:00:00:02")
          Netpkt.Eth.ethertype_sfc)
    :: Netpkt.Pkt.Sfc_raw (Sfc_header.encode hdr)
    :: List.tl tail)

let test_clear_cpu_mark () =
  let hdr =
    {
      Sfc_header.default with
      service_path_id = 10;
      service_index = 3;
      to_cpu = true;
      context = [| (0, 0); (0, 0); (0, 0); (Sfc_header.ctx_key_cpu_reason, 77) |];
    }
  in
  let frame = sfc_frame hdr in
  let cleared = Runtime.clear_cpu_mark frame in
  check Alcotest.bool "returns a fresh buffer" false (frame == cleared);
  match Sfc_header.decode cleared ~off:Netpkt.Eth.size with
  | Error e -> Alcotest.fail e
  | Ok h ->
      check Alcotest.bool "to_cpu cleared" false h.Sfc_header.to_cpu;
      check Alcotest.(option int) "cpu reason gone" None
        (Sfc_header.find_context h Sfc_header.ctx_key_cpu_reason);
      check Alcotest.int "path preserved" 10 h.Sfc_header.service_path_id;
      check Alcotest.int "index preserved" 3 h.Sfc_header.service_index

let test_clear_cpu_mark_non_sfc () =
  let frame = Bytes.of_string (String.make 20 'x') in
  let cleared = Runtime.clear_cpu_mark frame in
  check Alcotest.bytes "non-SFC frame untouched" frame cleared

(* [clear_cpu_mark] against re-encoding: decode the SFC header, encode
   it with [to_cpu] false and every CPU-reason slot (0, 0), blit that
   into a copy. Three kinds of frame: SFC frames of random bytes with
   non-zero pad bits and 0-4 CPU-reason slots, frames of other
   ethertypes, and frames shorter than Ethernet plus the SFC header. *)
let prop_clear_cpu_mark_matches_reencoding =
  let sfc_min = Netpkt.Eth.size + Sfc_header.byte_size in
  let reencoded frame =
    let copy = Bytes.copy frame in
    (match Netpkt.Eth.decode frame ~off:0 with
    | Ok eth when eth.Netpkt.Eth.ethertype = Netpkt.Eth.ethertype_sfc -> (
        match Sfc_header.decode frame ~off:Netpkt.Eth.size with
        | Error _ -> ()
        | Ok hdr ->
            let context =
              Array.map
                (fun (k, v) ->
                  if k = Sfc_header.ctx_key_cpu_reason then (0, 0) else (k, v))
                hdr.Sfc_header.context
            in
            Bytes.blit
              (Sfc_header.encode { hdr with Sfc_header.to_cpu = false; context })
              0 copy Netpkt.Eth.size Sfc_header.byte_size)
    | Ok _ | Error _ -> ());
    copy
  in
  let gen =
    QCheck.Gen.(
      let* kind = int_bound 2 in
      match kind with
      | 0 ->
          let* tail = int_bound 40 in
          let* raw = string_size (return (sfc_min + tail)) in
          let* pad = int_range 1 0x1ff in
          let* reasons = array_size (return Sfc_header.n_ctx_slots) bool in
          let b = Bytes.of_string raw in
          Netpkt.Bytes_util.set_uint16 b 12 Netpkt.Eth.ethertype_sfc;
          let inst = P4ir.Hdr.inst Sfc_header.decl in
          let bit_off = 8 * Netpkt.Eth.size in
          P4ir.Hdr.extract inst b ~bit_off;
          P4ir.Hdr.set inst "_pad" (P4ir.Bitval.of_int ~width:9 pad);
          Array.iteri
            (fun i on ->
              if on then
                P4ir.Hdr.set inst
                  (Printf.sprintf "ctx_key%d" i)
                  (P4ir.Bitval.of_int ~width:8 Sfc_header.ctx_key_cpu_reason))
            reasons;
          P4ir.Hdr.emit inst b ~bit_off;
          return b
      | 1 ->
          let* len = int_range Netpkt.Eth.size (sfc_min + 40) in
          let* raw = string_size (return len) in
          let* ethertype = int_bound 0xffff in
          let b = Bytes.of_string raw in
          Netpkt.Bytes_util.set_uint16 b 12
            (if ethertype = Netpkt.Eth.ethertype_sfc then
               Netpkt.Eth.ethertype_ipv4
             else ethertype);
          return b
      | _ ->
          let* len = int_bound (sfc_min - 1) in
          let* raw = string_size (return len) in
          let* sfc = bool in
          let b = Bytes.of_string raw in
          if sfc && len >= Netpkt.Eth.size then
            Netpkt.Bytes_util.set_uint16 b 12 Netpkt.Eth.ethertype_sfc;
          return b)
  in
  QCheck.Test.make ~name:"clear cpu mark = re-encoding" ~count:1000
    (QCheck.make ~print:(Format.asprintf "%a" Netpkt.Bytes_util.pp_hex) gen)
    (fun frame ->
      let before = Bytes.copy frame in
      let cleared = Runtime.clear_cpu_mark frame in
      cleared != frame
      && Bytes.equal frame before
      && Bytes.equal cleared (reencoded before))

(* End-to-end: LB sessions stick, and the CPU is consulted once per flow. *)
let runtime ?engine () =
  let compiled =
    Result.get_ok (Compiler.compile (Nflib.Catalog.edge_cloud_input ()))
  in
  let rt = Runtime.create ?engine compiled in
  Nflib.Catalog.attach_handlers rt compiled;
  rt

let journeys = { Runtime.Engine.default with telemetry = Telemetry.Level.Journeys }

let vip_pkt ~src_port =
  Netpkt.Pkt.tcp_flow
    ~src_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:01")
    ~dst_mac:(Netpkt.Mac.of_string_exn "02:00:00:00:00:02")
    {
      Netpkt.Flow.src = Netpkt.Ip4.of_string_exn "203.0.113.50";
      dst = Nflib.Catalog.tenant1_vip;
      proto = Netpkt.Ipv4.proto_tcp;
      src_port;
      dst_port = 80;
    }

let backend_of outcome =
  match outcome.Ptf.decoded with
  | Some layers -> (
      match Netpkt.Pkt.find_ipv4 layers with
      | Some ip -> ip.Netpkt.Ipv4.dst
      | None -> Alcotest.fail "no ipv4 in output")
  | None -> Alcotest.fail "no output frame"

let test_lb_session_stickiness () =
  let rt = runtime () in
  let first = Result.get_ok (Ptf.send rt ~in_port:0 (vip_pkt ~src_port:7777)) in
  check Alcotest.int "first packet consults the CPU" 1
    first.Ptf.runtime.Runtime.counters.Runtime.Counters.cpu_round_trips;
  let second = Result.get_ok (Ptf.send rt ~in_port:0 (vip_pkt ~src_port:7777)) in
  check Alcotest.int "second packet hits the session" 0
    second.Ptf.runtime.Runtime.counters.Runtime.Counters.cpu_round_trips;
  check Alcotest.bool "same backend both times" true
    (Netpkt.Ip4.equal (backend_of first) (backend_of second));
  check Alcotest.bool "backend from the pool" true
    (List.exists
       (Netpkt.Ip4.equal (backend_of first))
       Nflib.Catalog.tenant1_backends)

let test_lb_spreads_flows () =
  let rt = runtime () in
  let backends =
    List.init 24 (fun i ->
        backend_of
          (Result.get_ok (Ptf.send rt ~in_port:0 (vip_pkt ~src_port:(2000 + (i * 13))))))
  in
  let distinct = List.sort_uniq Netpkt.Ip4.compare backends in
  check Alcotest.bool "multiple backends used" true (List.length distinct > 1)

let test_reinject_loop_bounded () =
  (* A handler that always reinjects without installing anything: the
     packet punts forever and [process] must stop with an error after
     dispatching the handler exactly [max_cpu_loops] times (the old
     guard allowed one extra round trip). At [Journeys] the failed
     packet still leaves a journey: every walk it completed, two passes
     each, under the error verdict. *)
  let compiled =
    Result.get_ok (Compiler.compile (Nflib.Catalog.edge_cloud_input ()))
  in
  let rt = Runtime.create ~engine:journeys compiled in
  Runtime.register_nf_id rt "lb" (Runtime.default_nf_id "lb");
  let count = ref 0 in
  Runtime.on_to_cpu_state rt "lb" (fun _ _ _ bytes ->
      incr count;
      Runtime.Reinject (Runtime.clear_cpu_mark bytes));
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  match
    Runtime.process rt ~in_port:0 (Netpkt.Pkt.encode (vip_pkt ~src_port:4242))
  with
  | Ok _ -> Alcotest.fail "expected the CPU-loop bound to trip"
  | Error e ->
      check Alcotest.bool "error mentions CPU loops" true (contains e "CPU loops");
      check Alcotest.int "handler ran exactly max_cpu_loops times"
        Runtime.max_cpu_loops !count;
      let j =
        match Observe.journeys (Option.get (Runtime.telemetry rt)) with
        | [ j ] -> j
        | js -> Alcotest.failf "expected one journey, got %d" (List.length js)
      in
      check Alcotest.string "error verdict"
        "error:Runtime.process: exceeded 8 CPU loops" j.Telemetry.Journey.verdict;
      check Alcotest.int "round trips" Runtime.max_cpu_loops
        j.Telemetry.Journey.cpu_round_trips;
      check Alcotest.int "two passes per walk"
        (2 * (Runtime.max_cpu_loops + 1))
        (List.length j.Telemetry.Journey.hops);
      check (Alcotest.float 1e-6) "modelled latency" 5362.0
        j.Telemetry.Journey.latency_ns;
      check (Alcotest.float 1e-6) "latency is the sum of the hops"
        j.Telemetry.Journey.latency_ns
        (List.fold_left
           (fun acc (h : Telemetry.Journey.hop) -> acc +. h.Telemetry.Journey.latency_ns)
           0.0 j.Telemetry.Journey.hops)

let test_reinject_error_journey () =
  (* A handler that reinjects a frame the parser rejects: the packet
     fails in the walk after its first round trip, and its journey
     reads that round trip and the first walk's two passes. *)
  let compiled =
    Result.get_ok (Compiler.compile (Nflib.Catalog.edge_cloud_input ()))
  in
  let rt = Runtime.create ~engine:journeys compiled in
  Runtime.register_nf_id rt "lb" (Runtime.default_nf_id "lb");
  Runtime.on_to_cpu_state rt "lb" (fun _ _ _ _ ->
      Runtime.Reinject (Bytes.make 8 '\000'));
  match
    Runtime.process rt ~in_port:0 (Netpkt.Pkt.encode (vip_pkt ~src_port:4243))
  with
  | Ok _ -> Alcotest.fail "expected the reinjected walk to fail"
  | Error e ->
      let j = List.hd (Observe.journeys (Option.get (Runtime.telemetry rt))) in
      check Alcotest.string "error verdict" ("error:" ^ e)
        j.Telemetry.Journey.verdict;
      check Alcotest.int "one round trip" 1 j.Telemetry.Journey.cpu_round_trips;
      check Alcotest.int "the first walk's passes" 2
        (List.length j.Telemetry.Journey.hops)

(* --- Batch processing: determinism and Fast/Reference equivalence --- *)

let test_batch_deterministic () =
  (* Two fresh runtimes over the same workload must agree on every
     counter and on the output digest (an order-sensitive CRC over each
     packet's verdict, port and frame bytes). *)
  let run () = Runtime.process_batch (runtime ()) (Fixtures.mixed_workload 48) in
  let s1 = run () and s2 = run () in
  check Alcotest.bool "batch stats identical across runs" true (s1 = s2);
  check Alcotest.int "all packets emitted" 48 s1.Runtime.emitted;
  check Alcotest.bool "LB flows consulted the CPU" true
    (s1.Runtime.counters.Runtime.Counters.cpu_round_trips > 0)

let test_batch_fast_matches_reference () =
  (* The compiled fast data plane and the interpretive reference must
     produce byte-identical outputs and identical counters. *)
  let run mode =
    let rt = runtime ~engine:{ Runtime.Engine.default with exec_mode = mode } () in
    Runtime.process_batch rt (Fixtures.mixed_workload 48)
  in
  let fast = run Asic.Chip.Fast and reference = run Asic.Chip.Reference in
  check Alcotest.bool "fast = reference (digest and counters)" true
    (fast = reference);
  check Alcotest.int "no errors" 0 fast.Runtime.errors

(* Differential property over arbitrary frames: the Fast chip walk
   (template PHV, int cells, compiled parser/control/deparser, the PHV
   handed across the traffic manager) and the Reference walk (name-resolved PHV,
   interpreted parser and control, bytes at every pipe boundary) give
   the same result — verdict, emitted bytes (checksums included), pass
   counts, latency and hops, control events included — or the same
   error text. Frames start from each chip's templates and get random
   truncation, byte flips and trailing bytes, so truncated headers,
   unknown ethertypes and bad lengths all occur. The chips:
   - the Fig. 2 policy as placed for the paper (no recirculation);
   - the same policy under [Placement.Naive], which recirculates 3/2/1
     times on red/orange/green: a handover at every TM crossing, bytes
     at every recirculation;
   - the VXLAN gateway's tunnel chains, where encapsulation pushes
     headers down the stack and decapsulation pops them;
   - the one-header forwarder that resubmits once. *)
let prop_random_frames_fast_matches_reference =
  let fig2 = List.map snd (Fixtures.mixed_workload 8) in
  let chip ?strategy () =
    let compiled =
      Result.get_ok
        (Compiler.compile (Nflib.Catalog.edge_cloud_input ?strategy ()))
    in
    compiled.Compiler.chip
  in
  let tunnel_frames =
    let open Fixtures in
    let tcp dst =
      Netpkt.Pkt.tcp_flow ~src_mac:(mac "02:00:00:00:00:01")
        ~dst_mac:(mac "02:00:00:00:00:02")
        {
          Netpkt.Flow.src = ip "172.16.5.5";
          dst;
          proto = Netpkt.Ipv4.proto_tcp;
          src_port = 33333;
          dst_port = 443;
        }
    in
    (* Outer Ethernet/IPv4/UDP:4789 to the local VTEP, then VXLAN and
       the inner frame: terminated. *)
    let encapsulated =
      [
        Netpkt.Pkt.Eth (Netpkt.Eth.make ~dst:(mac "02:00:00:00:00:02") Netpkt.Eth.ethertype_ipv4);
        Netpkt.Pkt.Ipv4
          (Netpkt.Ipv4.make ~protocol:Netpkt.Ipv4.proto_udp ~src:(ip "192.0.2.20")
             ~dst:(ip "192.0.2.10") ());
        Netpkt.Pkt.Udp (Netpkt.Udp.make ~src_port:50000 ~dst_port:Netpkt.Udp.port_vxlan ());
        Netpkt.Pkt.Vxlan (Netpkt.Vxlan.make 8001);
      ]
      @ tcp (ip "10.8.3.3")
    in
    List.map Netpkt.Pkt.encode
      [ encapsulated; tcp (ip "10.8.77.1"); tcp (ip "10.7.1.1") ]
  in
  let chips =
    [|
      ("fig2", chip (), fig2);
      ("fig2 naive", chip ~strategy:Placement.Naive (), fig2);
      ("tunnels", (Result.get_ok (Fixtures.tunnel_chains ())).Compiler.chip, tunnel_frames);
      ( "resubmit once",
        Fixtures.load_tiny_chip (Fixtures.forwarder ~out_port:1 ~resubmit_once:true),
        [ Fixtures.eth_frame (); Fixtures.eth_frame ~src:7L () ] );
    |]
    |> Array.map (fun (name, chip, frames) ->
           (* Journeys: the hops are compared too. *)
           Asic.Chip.set_telemetry chip Telemetry.Level.Journeys;
           (name, chip, Array.of_list frames))
  in
  let case_gen =
    QCheck.Gen.(
      let* c = int_bound (Array.length chips - 1) in
      let _, _, templates = chips.(c) in
      let* base = int_bound (Array.length templates - 1) in
      let len = Bytes.length templates.(base) in
      let* cut = int_bound len in
      let* flips = list_size (int_bound 4) (pair (int_bound (len - 1)) (int_bound 255)) in
      let* tail = string_size (int_bound 16) in
      let* keep_length = bool in
      return
        ( c,
          let b = Bytes.copy templates.(base) in
          List.iter (fun (i, v) -> Bytes.set b i (Char.chr v)) flips;
          if keep_length then Bytes.cat b (Bytes.of_string tail)
          else Bytes.sub b 0 cut ))
  in
  let print (c, frame) =
    let name, _, _ = chips.(c) in
    Format.asprintf "%s: %a" name Netpkt.Bytes_util.pp_hex frame
  in
  QCheck.Test.make ~name:"random frames: fast chip walk = reference" ~count:1200
    (QCheck.make ~print case_gen)
    (fun (c, frame) ->
      let _, chip, _ = chips.(c) in
      let walk mode =
        Asic.Chip.set_exec_mode chip mode;
        Asic.Chip.inject chip ~in_port:0 frame
      in
      let fast = walk Asic.Chip.Fast in
      let reference = walk Asic.Chip.Reference in
      match (fast, reference) with
      | Ok f, Ok r -> f = r
      | Error f, Error r -> String.equal f r
      | Ok _, Error _ | Error _, Ok _ -> false)

(* --- Emitted-frame IPv4 checksums ----------------------------------
   Regression: action rewrites (NAT, LB DNAT, TTL decrement) used to
   leave the IPv4 checksum stale because encode paths only recomputed
   it when the field was 0. Every emitted frame carrying IPv4 must now
   check out under RFC 1071. *)

let ipv4_off frame =
  if Bytes.length frame < Netpkt.Eth.size + Netpkt.Ipv4.size then None
  else
    let et = Netpkt.Bytes_util.get_uint16 frame 12 in
    if et = Netpkt.Eth.ethertype_sfc then begin
      let off = Netpkt.Eth.size + Sfc_header.byte_size in
      if Bytes.length frame >= off + Netpkt.Ipv4.size then Some off else None
    end
    else if et = Netpkt.Eth.ethertype_ipv4 then Some Netpkt.Eth.size
    else None

let test_emitted_checksums_valid () =
  let run mode =
    let rt = runtime ~engine:{ Runtime.Engine.default with exec_mode = mode } () in
    let checked = ref 0 in
    List.iter
      (fun (in_port, frame) ->
        match Runtime.process rt ~in_port frame with
        | Error e -> Alcotest.fail e
        | Ok o -> (
            match o.Runtime.verdict with
            | Asic.Chip.Emitted { frame = out; _ } -> (
                match ipv4_off out with
                | Some off ->
                    incr checked;
                    check Alcotest.bool "emitted IPv4 checksum valid" true
                      (Netpkt.Ipv4.checksum_valid out ~off)
                | None -> ())
            | _ -> ()))
      (Fixtures.mixed_workload 48);
    check Alcotest.bool "some emitted frames carried IPv4" true (!checked > 0)
  in
  run Asic.Chip.Fast;
  run Asic.Chip.Reference

let test_unhandled_cpu_packet_terminates () =
  (* No handlers registered: the To_cpu verdict must surface, not loop. *)
  let compiled =
    Result.get_ok (Compiler.compile (Nflib.Catalog.edge_cloud_input ()))
  in
  let rt = Runtime.create compiled in
  match Ptf.send rt ~in_port:0 (vip_pkt ~src_port:1) with
  | Error e -> Alcotest.fail e
  | Ok o -> (
      match o.Ptf.runtime.Runtime.verdict with
      | Asic.Chip.To_cpu _ -> ()
      | _ -> Alcotest.fail "expected a to-CPU verdict")

let () =
  Alcotest.run "runtime"
    [
      ( "helpers",
        [
          Alcotest.test_case "nf ids" `Quick test_default_nf_id_stable;
          Alcotest.test_case "clear cpu mark" `Quick test_clear_cpu_mark;
          Alcotest.test_case "clear non-sfc" `Quick test_clear_cpu_mark_non_sfc;
          QCheck_alcotest.to_alcotest prop_clear_cpu_mark_matches_reencoding;
        ] );
      ( "lb_loop",
        [
          Alcotest.test_case "session stickiness" `Quick test_lb_session_stickiness;
          Alcotest.test_case "spreads flows" `Quick test_lb_spreads_flows;
          Alcotest.test_case "unhandled cpu packet" `Quick
            test_unhandled_cpu_packet_terminates;
          Alcotest.test_case "reinject loop bounded" `Quick
            test_reinject_loop_bounded;
          Alcotest.test_case "reinject error journey" `Quick
            test_reinject_error_journey;
        ] );
      ( "batch",
        [
          Alcotest.test_case "deterministic" `Quick test_batch_deterministic;
          Alcotest.test_case "fast = reference" `Quick
            test_batch_fast_matches_reference;
          QCheck_alcotest.to_alcotest prop_random_frames_fast_matches_reference;
        ] );
      ( "checksums",
        [
          Alcotest.test_case "emitted ipv4 checksums valid" `Quick
            test_emitted_checksums_valid;
        ] );
    ]
