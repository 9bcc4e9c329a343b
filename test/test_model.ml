(* The §4 analytic models. *)

open Dejavu_core

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let close ?(tol = 0.005) a b = abs_float (a -. b) < tol

let test_loopback_split () =
  let s = Model.loopback_split ~n_ports:32 ~m_loopback:16 in
  check Alcotest.(float 1e-9) "half external" 0.5 s.Model.external_fraction;
  check Alcotest.(float 1e-9) "all traffic can recirc once" 1.0
    s.Model.single_recirc_fraction;
  let s = Model.loopback_split ~n_ports:32 ~m_loopback:8 in
  check Alcotest.(float 1e-9) "3/4 external" 0.75 s.Model.external_fraction;
  check Alcotest.bool "1/3 can recirc" true
    (close s.Model.single_recirc_fraction (1.0 /. 3.0));
  let s = Model.loopback_split ~n_ports:32 ~m_loopback:0 in
  check Alcotest.(float 1e-9) "no loopback, full external" 1.0
    s.Model.external_fraction;
  check Alcotest.(float 1e-9) "no recirc capacity" 0.0
    s.Model.single_recirc_fraction

let test_feedback_known_values () =
  check Alcotest.bool "k=0 -> 1.0" true (close (Model.feedback_throughput 0) 1.0);
  check Alcotest.bool "k=1 -> 1.0" true (close (Model.feedback_throughput 1) 1.0);
  (* Paper: x = 0.62T, delivered 0.38T. *)
  check Alcotest.bool "k=2 -> 0.382" true
    (close (Model.feedback_throughput 2) 0.382);
  (* Paper: "effective throughput of the traffic with 3-recirculation as 0.16T" *)
  check Alcotest.bool "k=3 -> ~0.16" true
    (close ~tol:0.01 (Model.feedback_throughput 3) 0.16)

let test_feedback_golden_step () =
  (* The x in the paper's worked example: first-pass rate at the
     saturated loopback port is the golden ratio conjugate. *)
  let rates = Model.feedback_arrival_rates 2 in
  let total = Array.fold_left ( +. ) 0.0 rates in
  let keep = 1.0 /. total in
  check Alcotest.bool "x = 0.618T" true (close (rates.(0) *. keep) Model.golden_x);
  check Alcotest.bool "golden constant" true (close Model.golden_x 0.618034)

let prop_feedback_decreasing =
  QCheck.Test.make ~name:"feedback throughput decreases in k" ~count:20
    QCheck.(int_range 0 12)
    (fun k -> Model.feedback_throughput k >= Model.feedback_throughput (k + 1) -. 1e-9)

let prop_feedback_bounded =
  QCheck.Test.make ~name:"feedback throughput in (0, 1]" ~count:20
    QCheck.(int_range 0 12)
    (fun k ->
      let f = Model.feedback_throughput k in
      f > 0.0 && f <= 1.0 +. 1e-9)

let test_chain_throughput () =
  let spec = Asic.Spec.wedge_100b in
  let ports = Asic.Port.make spec in
  Asic.Port.set_pipeline_loopback ports spec 1;
  (* §5 setting: 1.6 Tbps external, one free recirculation. *)
  check Alcotest.bool "no recirc: 1.6T" true
    (close ~tol:1.0 (Model.chain_throughput_gbps spec ports ~recircs:0) 1600.0);
  check Alcotest.bool "one recirc is free" true
    (close ~tol:1.0 (Model.chain_throughput_gbps spec ports ~recircs:1) 1600.0);
  check Alcotest.bool "two recircs degrade" true
    (Model.chain_throughput_gbps spec ports ~recircs:2 < 1600.0)

let test_software_cores () =
  (* §1: 10s of Gbps needs multiple cores; match 1.6 Tbps at 10 Gbps/core. *)
  check Alcotest.int "160 cores for the switch's throughput" 160
    (Model.software_cores_needed ~target_gbps:1600.0 ~gbps_per_core:10.0);
  check Alcotest.int "rounds up" 2
    (Model.software_cores_needed ~target_gbps:10.1 ~gbps_per_core:10.0)

let test_chain_latency_model () =
  let spec = Asic.Spec.wedge_100b in
  let path0 =
    {
      Traversal.steps =
        [
          Traversal.Ingress_step
            { pipeline = 0; idx_in = 0; idx_out = 2; action = Traversal.To_egress 0 };
          Traversal.Egress_step
            { pipeline = 0; idx_in = 2; idx_out = 3; action = Traversal.Emit };
        ];
      recircs = 0;
      resubmits = 0;
      hops = 0;
    }
  in
  check Alcotest.(float 1e-6) "0-recirc path = port-to-port"
    (Asic.Latency.port_to_port_ns spec)
    (Model.chain_latency_ns spec path0);
  let path1 =
    {
      Traversal.steps =
        [
          Traversal.Ingress_step
            { pipeline = 0; idx_in = 0; idx_out = 1; action = Traversal.To_egress 1 };
          Traversal.Egress_step
            { pipeline = 1; idx_in = 1; idx_out = 1; action = Traversal.Recirc };
          Traversal.Ingress_step
            { pipeline = 1; idx_in = 1; idx_out = 2; action = Traversal.To_egress 0 };
          Traversal.Egress_step
            { pipeline = 0; idx_in = 2; idx_out = 2; action = Traversal.Emit };
        ];
      recircs = 1;
      resubmits = 0;
      hops = 0;
    }
  in
  let extra =
    Model.chain_latency_ns spec path1 -. Model.chain_latency_ns spec path0
  in
  (* One recirc adds the loopback hop plus one more ingress+egress pass
     and TM crossing. *)
  check Alcotest.bool "recirc path costs one extra round" true
    (close ~tol:1.0 extra
       (Asic.Latency.recirc_on_chip_ns spec
       +. (2.0 *. Asic.Latency.pipe_pass_ns spec)
       +. spec.Asic.Spec.lat.Asic.Spec.tm_ns))

let () =
  Alcotest.run "model"
    [
      ( "loopback",
        [ Alcotest.test_case "capacity split" `Quick test_loopback_split ] );
      ( "feedback",
        [
          Alcotest.test_case "known values" `Quick test_feedback_known_values;
          Alcotest.test_case "golden step" `Quick test_feedback_golden_step;
          qtest prop_feedback_decreasing;
          qtest prop_feedback_bounded;
        ] );
      ( "chain",
        [
          Alcotest.test_case "throughput" `Quick test_chain_throughput;
          Alcotest.test_case "software cores" `Quick test_software_cores;
          Alcotest.test_case "latency" `Quick test_chain_latency_model;
        ] );
    ]
