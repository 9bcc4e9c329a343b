type loopback_split = {
  external_fraction : float;
  single_recirc_fraction : float;
}

let loopback_split ~n_ports ~m_loopback =
  if n_ports <= 0 || m_loopback < 0 || m_loopback > n_ports then
    invalid_arg "Model.loopback_split";
  let n = float_of_int n_ports and m = float_of_int m_loopback in
  {
    external_fraction = (n -. m) /. n;
    single_recirc_fraction =
      (if m_loopback = n_ports then 1.0 else min 1.0 (m /. (n -. m)));
  }

(* Fixed point of the feedback queue: fresh traffic arrives at the
   loopback port at rate 1 (T units) and must pass k times; the port
   drains at rate 1 and sheds overload proportionally across passes. *)
let feedback_arrival_rates_capacity ~capacity k =
  if k < 0 then invalid_arg "Model.feedback_arrival_rates";
  if capacity <= 0.0 then invalid_arg "Model: capacity must be positive";
  if k = 0 then [||]
  else begin
    let a = Array.make k 0.0 in
    a.(0) <- 1.0;
    for _ = 0 to 9999 do
      let total = Array.fold_left ( +. ) 0.0 a in
      let keep = if total > capacity then capacity /. total else 1.0 in
      for i = k - 1 downto 1 do
        a.(i) <- a.(i - 1) *. keep
      done
    done;
    a
  end

let feedback_arrival_rates = feedback_arrival_rates_capacity ~capacity:1.0

(* The loopback group drains at [capacity] x the fresh arrival rate
   ([capacity] = m/(n-m) for m loopback ports of n). *)
let feedback_throughput_capacity ~capacity k =
  if k < 0 then invalid_arg "Model.feedback_throughput";
  if k = 0 then 1.0
  else begin
    let a = feedback_arrival_rates_capacity ~capacity k in
    let total = Array.fold_left ( +. ) 0.0 a in
    let keep = if total > capacity then capacity /. total else 1.0 in
    a.(k - 1) *. keep
  end

let feedback_throughput = feedback_throughput_capacity ~capacity:1.0

let golden_x = (sqrt 5.0 -. 1.0) /. 2.0

let chain_throughput_gbps spec ports ~recircs =
  let n = Asic.Spec.n_eth_ports spec in
  let m = Asic.Port.loopback_count ports in
  let split = loopback_split ~n_ports:n ~m_loopback:m in
  let external_gbps =
    split.external_fraction *. Asic.Spec.total_capacity_gbps spec
  in
  if recircs = 0 then external_gbps
  else if m = 0 then
    (* Only the dedicated recirculation ports remain: one per pipeline,
       which is negligible at line rate — model as zero. *)
    0.0
  else
    (* Every recirculation passes through the loopback port group, whose
       drain rate is m/(n-m) of the external arrival rate. *)
    let capacity = float_of_int m /. float_of_int (n - m) in
    external_gbps *. feedback_throughput_capacity ~capacity recircs

let software_cores_needed ~target_gbps ~gbps_per_core =
  if gbps_per_core <= 0.0 then invalid_arg "Model.software_cores_needed";
  int_of_float (ceil (target_gbps /. gbps_per_core))

let chain_latency_ns ?(cable_m = 1.0) spec (path : Traversal.path) =
  let ingress_passes =
    List.length
      (List.filter
         (function Traversal.Ingress_step _ -> true | _ -> false)
         path.Traversal.steps)
  in
  let egress_passes =
    List.length
      (List.filter
         (function Traversal.Egress_step _ -> true | _ -> false)
         path.Traversal.steps)
  in
  let tm_crossings =
    List.length
      (List.filter
         (function
           | Traversal.Ingress_step { action = Traversal.To_egress _; _ } -> true
           | _ -> false)
         path.Traversal.steps)
  in
  Asic.Latency.path_ns spec ~ingress_passes ~egress_passes ~tm_crossings
    ~on_chip_recircs:path.Traversal.recircs
  +. float_of_int path.Traversal.hops
     *. Asic.Latency.recirc_off_chip_ns spec ~cable_m
