type input = {
  spec : Asic.Spec.t;
  registry : Nf.registry;
  chains : Chain.t list;
  entry_pipeline : int;
  strategy : Placement.strategy;
  loopback_pipelines : int list;
  pinned : (string * Asic.Pipelet.id) list;
  mirror_port : int option;
}

let default_input ?(spec = Asic.Spec.wedge_100b) ?(entry_pipeline = 0)
    ?(strategy = Placement.Exhaustive) ?(loopback_pipelines = [ 1 ])
    ?(pinned = []) ?mirror_port ~registry ~chains () =
  {
    spec;
    registry;
    chains;
    entry_pipeline;
    strategy;
    loopback_pipelines;
    pinned;
    mirror_port;
  }

type t = {
  input : input;
  chip : Asic.Chip.t;
  layout : Layout.t;
  objective : float;
  plan : Branching.plan;
  generic_parser : P4ir.Parser_graph.t;
  built : (Asic.Pipelet.id * Compose.built) list;
}

let ( let* ) = Result.bind

(* Validate the chains and instantiate fresh NF instances for this
   deployment — the shared prefix of [placement_input] and [compile]. *)
let instantiate_chains input =
  let* () = Chain.validate_against input.registry input.chains in
  let chains = Chain.normalize_weights input.chains in
  let* nfs =
    List.fold_left
      (fun acc name ->
        let* l = acc in
        let* nf = Nf.instantiate input.registry name in
        Ok (l @ [ (name, nf) ]))
      (Ok [])
      (Chain.all_nfs chains)
  in
  Ok (chains, nfs)

(* The placement problem induced by a deployment: per-NF resource
   demands (memoized — the solvers call [resources_of] in their inner
   loops) and classifier-style NFs auto-pinned to the entry ingress, on
   one switch. *)
let placement_input_of input chains nfs =
  let resource_cache = Hashtbl.create 16 in
  let resources_of name =
    match Hashtbl.find_opt resource_cache name with
    | Some r -> r
    | None ->
        let r =
          match List.assoc_opt name nfs with
          | Some nf -> Nf.resources nf
          | None -> P4ir.Resources.zero
        in
        Hashtbl.replace resource_cache name r;
        r
  in
  let auto_pins =
    List.filter_map
      (fun (name, nf) ->
        match nf.Nf.gate with
        | Nf.On_missing_sfc ->
            Some
              ( name,
                {
                  Asic.Pipelet.pipeline = input.entry_pipeline;
                  kind = Asic.Pipelet.Ingress;
                } )
        | Nf.Sfc_indexed -> None)
      nfs
  in
  let pinned =
    auto_pins
    @ List.filter (fun (n, _) -> not (List.mem_assoc n auto_pins)) input.pinned
  in
  {
    Placement.spec = input.spec;
    resources_of;
    chains;
    entry_pipeline = input.entry_pipeline;
    pinned;
    switches = 1;
  }

let placement_input input =
  let* chains, nfs = instantiate_chains input in
  Ok (placement_input_of input chains nfs)

let compile input =
  let* chains, nfs = instantiate_chains input in
  let nf_of name =
    match List.assoc_opt name nfs with
    | Some nf -> Ok nf
    | None -> Error (Printf.sprintf "compiler: unknown NF %s" name)
  in
  (* Generic parser: the framework's own slice (it must always parse the
     SFC header) merged with every NF's parser. *)
  let framework_parser = Net_hdrs.base_parser ~with_vlan:true ~name:"dejavu" () in
  let* generic_parser =
    Result.map_error
      (fun c -> "parser merge: " ^ Parser_merge.conflict_message c)
      (Parser_merge.merge ~name:"generic"
         (framework_parser :: List.map (fun (_, nf) -> nf.Nf.parser) nfs))
  in
  let pinput = placement_input_of input chains nfs in
  let* layout, objective = Placement.solve pinput input.strategy in
  (* Ports: requested pipelines into loopback. *)
  let ports = Asic.Port.make input.spec in
  List.iter
    (fun pipe ->
      if pipe = input.entry_pipeline then
        invalid_arg "compiler: cannot loop back the entry pipeline"
      else Asic.Port.set_pipeline_loopback ports input.spec pipe)
    input.loopback_pipelines;
  (* Routing plan. *)
  let* plan =
    Branching.plan input.spec ports layout chains
      ~entry_pipeline:input.entry_pipeline
  in
  (* Compose one program per pipelet. *)
  let* built =
    List.fold_left
      (fun acc id ->
        let* l = acc in
        let* b =
          Compose.build ~generic_parser ~id
            ~layout:(Layout.layout_of layout id) ~nf_of
        in
        Ok (l @ [ (id, b) ]))
      (Ok [])
      (Asic.Pipelet.all_ids input.spec)
  in
  (* Install routing entries. *)
  let branching_table_of pipeline =
    List.find_map
      (fun ((id : Asic.Pipelet.id), (b : Compose.built)) ->
        if id.Asic.Pipelet.pipeline = pipeline && id.Asic.Pipelet.kind = Asic.Pipelet.Ingress
        then
          Option.bind b.Compose.branching_table
            (P4ir.Program.find_table b.Compose.program)
        else None)
      built
  in
  let check_next_table_of nf =
    List.find_map
      (fun (_, (b : Compose.built)) ->
        Option.bind
          (List.assoc_opt nf b.Compose.check_next_of)
          (P4ir.Program.find_table b.Compose.program))
      built
  in
  let* () = Branching.install plan ~branching_table_of ~check_next_table_of in
  (* Load the chip. *)
  let program_of kind pipeline =
    let id = { Asic.Pipelet.pipeline; kind } in
    let _, b =
      List.find (fun (i, _) -> Asic.Pipelet.equal_id i id) built
    in
    b.Compose.program
  in
  let config =
    {
      Asic.Chip.spec = input.spec;
      ingress_programs =
        Array.init input.spec.Asic.Spec.n_pipelines
          (program_of Asic.Pipelet.Ingress);
      egress_programs =
        Array.init input.spec.Asic.Spec.n_pipelines
          (program_of Asic.Pipelet.Egress);
      ports;
      mirror_port = input.mirror_port;
    }
  in
  let* chip = Asic.Chip.load config in
  Ok { input; chip; layout; objective; plan; generic_parser; built }

let find_nf_table t ~nf ~table =
  let name = Compose.nf_table_name ~nf table in
  List.find_map
    (fun (_, (b : Compose.built)) -> P4ir.Program.find_table b.Compose.program name)
    t.built

let find_register t name =
  List.find_map
    (fun (_, (b : Compose.built)) ->
      P4ir.Program.find_register b.Compose.program name)
    t.built

(* --- Table 1 report --- *)

type report_row = { resource : string; used : int; capacity : int; pct : float }

let framework_report t =
  let spec = t.input.spec in
  let caps = spec.Asic.Spec.stage_caps in
  let n_pipelets = Asic.Spec.n_pipelets spec in
  let total_stages = n_pipelets * spec.Asic.Spec.stages_per_pipelet in
  let per_stage_ids = caps.P4ir.Resources.cap_table_ids in
  (* Walk every loaded pipelet, look at the dv_ tables' stage slots and
     resource demands. *)
  let stage_slots = Hashtbl.create 32 in
  let acc = ref P4ir.Resources.zero in
  let gateways = ref 0 in
  List.iter
    (fun ((id : Asic.Pipelet.id), (b : Compose.built)) ->
      gateways := !gateways + b.Compose.framework_gateways;
      let pipelet = Asic.Chip.pipelet t.chip id in
      List.iter
        (fun tname ->
          (match Asic.Pipelet.stage_of_table pipelet tname with
          | Some s -> Hashtbl.replace stage_slots (id, s) ()
          | None -> ());
          match P4ir.Program.find_table b.Compose.program tname with
          | Some table ->
              acc :=
                P4ir.Resources.add !acc
                  { (P4ir.Resources.of_table table) with P4ir.Resources.stages = 0 }
          | None -> ())
        b.Compose.framework_tables)
    t.built;
  let used = !acc in
  let row resource used capacity =
    {
      resource;
      used;
      capacity;
      pct =
        (if capacity = 0 then 0.0
         else 100.0 *. float_of_int used /. float_of_int capacity);
    }
  in
  [
    row "Stages" (Hashtbl.length stage_slots) total_stages;
    row "Table IDs" used.P4ir.Resources.table_ids (total_stages * per_stage_ids);
    row "Gateways" !gateways (total_stages * caps.P4ir.Resources.cap_gateways);
    row "Crossbars" used.P4ir.Resources.crossbar_bytes
      (total_stages * caps.P4ir.Resources.cap_crossbar_bytes);
    row "VLIWs" used.P4ir.Resources.vliws (total_stages * caps.P4ir.Resources.cap_vliws);
    row "SRAM" used.P4ir.Resources.srams (total_stages * caps.P4ir.Resources.cap_srams);
    row "TCAM" used.P4ir.Resources.tcams (total_stages * caps.P4ir.Resources.cap_tcams);
  ]

let pp_report ppf rows =
  Format.fprintf ppf "@[<v>%-10s %8s %8s %7s@," "Resource" "Used" "Capacity" "Pct";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %8d %8d %6.1f%%@," r.resource r.used r.capacity
        r.pct)
    rows;
  Format.fprintf ppf "@]"

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>spec: %a@,placement (objective %.3f):@,%a@,paths:@,"
    Asic.Spec.pp t.input.spec t.objective Layout.pp t.layout;
  List.iter
    (fun ((c : Chain.t), p) ->
      Format.fprintf ppf "  %s: %a@," c.Chain.name Traversal.pp_path p)
    t.plan.Branching.paths;
  Format.fprintf ppf "@]"
