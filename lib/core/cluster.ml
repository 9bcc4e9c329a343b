type t = { spec : Asic.Spec.t; n_switches : int; cable_m : float }

let make ?(cable_m = 1.0) ~spec ~n_switches () =
  if n_switches < 1 then invalid_arg "Cluster.make: need at least one switch";
  { spec; n_switches; cable_m }

let per_switch t = t.spec.Asic.Spec.n_pipelines
let n_global_pipelines t = t.n_switches * per_switch t
let switch_of_pipeline t g = g / per_switch t
let chip t = { t.spec with Asic.Spec.n_pipelines = n_global_pipelines t }

let check_switch t ~fn switch =
  if switch < 0 || switch >= t.n_switches then
    invalid_arg (Printf.sprintf "Cluster.%s: bad switch" fn)

let global_pipeline t ~switch ~pipeline =
  check_switch t ~fn:"global_pipeline" switch;
  if pipeline < 0 || pipeline >= per_switch t then
    invalid_arg "Cluster.global_pipeline: bad pipeline";
  (switch * per_switch t) + pipeline

let pipelet t ~switch ~pipeline ~kind =
  { Asic.Pipelet.pipeline = global_pipeline t ~switch ~pipeline; kind }

let port t ~switch ~port =
  check_switch t ~fn:"port" switch;
  let per = Asic.Spec.n_eth_ports t.spec in
  if port < 0 || port >= per then invalid_arg "Cluster.port: bad port";
  (switch * per) + port

type strategy = Greedy_fill | Anneal of { iterations : int; seed : int }

(* Fill pipelets in forward order (switch by switch), packing as many
   chain-consecutive NFs per pipelet as fit sequentially — the natural
   "chain the switches back-to-back" plan of §7. *)
let forward_fill (input : Placement.input) =
  let pipelets = Array.of_list (Asic.Pipelet.all_ids input.Placement.spec) in
  let budget = input.Placement.spec.Asic.Spec.stages_per_pipelet in
  let rec fill assignment cursor = function
    | [] -> Ok assignment
    | nf :: rest as nfs ->
        if cursor >= Array.length pipelets then
          Error "cluster greedy: out of pipelets"
        else
          let id = pipelets.(cursor) in
          let candidate = assignment @ [ (nf, id) ] in
          let members =
            List.filter_map
              (fun (f, i) -> if Asic.Pipelet.equal_id i id then Some f else None)
              candidate
          in
          if Placement.stages_needed input [ Layout.Seq members ] <= budget then
            fill candidate cursor rest
          else fill assignment (cursor + 1) nfs
  in
  let free =
    List.filter
      (fun nf -> not (List.mem_assoc nf input.Placement.pinned))
      (Chain.all_nfs input.Placement.chains)
  in
  Result.bind (fill input.Placement.pinned 0 free) (fun assignment ->
      let scored layout =
        Option.map (fun c -> (layout, c)) (Placement.evaluate input layout)
      in
      match Option.bind (Placement.build_layout input assignment) scored with
      | Some r -> Ok r
      | None -> Error "cluster greedy: infeasible routing")

let place t ~resources_of ~chains ~pinned strategy =
  let input =
    {
      Placement.spec = chip t;
      switches = t.n_switches;
      resources_of;
      chains;
      entry_pipeline = 0;
      pinned;
    }
  in
  let fill = forward_fill input in
  match strategy with
  | Greedy_fill -> fill
  | Anneal { iterations; seed } ->
      Placement.anneal input
        ~start:(Result.to_option (Result.map fst fill))
        ~iterations ~seed ~initial_temp:2.0
