type latency_params = {
  mac_serdes_ns : float;
  parse_ns : float;
  stage_ns : float;
  deparse_ns : float;
  tm_ns : float;
  recirc_port_ns : float;
  wire_ns_per_m : float;
}

type t = {
  name : string;
  n_pipelines : int;
  stages_per_pipelet : int;
  ports_per_pipeline : int;
  port_gbps : float;
  recirc_port_gbps : float;
  stage_caps : P4ir.Resources.stage_caps;
  lat : latency_params;
}

let default_lat =
  {
    mac_serdes_ns = 70.0;
    parse_ns = 40.0;
    stage_ns = 12.0;
    deparse_ns = 25.0;
    tm_ns = 100.0;
    recirc_port_ns = 75.0;
    wire_ns_per_m = 5.0;
  }

let wedge_100b =
  {
    name = "wedge-100b-32x";
    n_pipelines = 2;
    stages_per_pipelet = 12;
    ports_per_pipeline = 16;
    port_gbps = 100.0;
    recirc_port_gbps = 100.0;
    stage_caps = P4ir.Resources.tofino_stage_caps;
    lat = default_lat;
  }

let tofino_4pipe =
  {
    wedge_100b with
    name = "tofino-4pipe";
    n_pipelines = 4;
    ports_per_pipeline = 16;
  }

let n_pipelets t = 2 * t.n_pipelines
let n_eth_ports t = t.n_pipelines * t.ports_per_pipeline

let port_pipeline t port =
  if port < 0 || port >= n_eth_ports t then
    invalid_arg (Printf.sprintf "Spec.port_pipeline: port %d out of range" port)
  else port / t.ports_per_pipeline

let ports_of_pipeline t pipe =
  List.init t.ports_per_pipeline (fun i -> (pipe * t.ports_per_pipeline) + i)

let recirc_port pipe = 256 + pipe
let is_recirc_port port = port >= 256 && port < 320
let pipeline_of_recirc_port port = port - 256
let cpu_port = 320

let valid_port t port =
  (port >= 0 && port < n_eth_ports t)
  || (is_recirc_port port && pipeline_of_recirc_port port < t.n_pipelines)
  || port = cpu_port

let pipeline_of_any_port t port =
  if port = cpu_port then None
  else if is_recirc_port port then Some (pipeline_of_recirc_port port)
  else Some (port_pipeline t port)

let total_capacity_gbps t = float_of_int (n_eth_ports t) *. t.port_gbps

let pp ppf t =
  Format.fprintf ppf
    "%s: %d pipelines (%d pipelets), %d stages/pipelet, %d x %.0f Gbps ports"
    t.name t.n_pipelines (n_pipelets t) t.stages_per_pipelet (n_eth_ports t)
    t.port_gbps
