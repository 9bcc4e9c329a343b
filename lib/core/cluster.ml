type t = { spec : Asic.Spec.t; n_switches : int; cable_m : float }

let make ?(cable_m = 1.0) ~spec ~n_switches () =
  if n_switches < 1 then invalid_arg "Cluster.make: need at least one switch";
  { spec; n_switches; cable_m }

let per_switch t = t.spec.Asic.Spec.n_pipelines
let n_global_pipelines t = t.n_switches * per_switch t
let switch_of_pipeline t g = g / per_switch t

let global_pipeline t ~switch ~pipeline =
  if switch < 0 || switch >= t.n_switches then
    invalid_arg "Cluster.global_pipeline: bad switch";
  if pipeline < 0 || pipeline >= per_switch t then
    invalid_arg "Cluster.global_pipeline: bad pipeline";
  (switch * per_switch t) + pipeline

let pipelet t ~switch ~pipeline ~kind =
  { Asic.Pipelet.pipeline = global_pipeline t ~switch ~pipeline; kind }

type step =
  | Ingress_pass of { global_pipeline : int; idx_out : int }
  | To_egress of { global_pipeline : int; idx_out : int }
  | Resubmit
  | Recirc
  | Hop of { to_switch : int }
  | Emit

type path = {
  steps : step list;
  recircs : int;
  resubmits : int;
  hops : int;
}

(* Costs, in milli-recirculations. *)
let recirc_cost = 1000
let resubmit_cost = 900
let hop_cost = 100

type loc = I of int | E of int

let solve t layout ~entry_pipeline ~exit_switch ~exit_pipeline chain =
  let k = List.length chain in
  let n = n_global_pipelines t in
  let exit_global = global_pipeline t ~switch:exit_switch ~pipeline:exit_pipeline in
  let layout_at loc =
    match loc with
    | I g -> Layout.layout_of layout { Asic.Pipelet.pipeline = g; kind = Asic.Pipelet.Ingress }
    | E g -> Layout.layout_of layout { Asic.Pipelet.pipeline = g; kind = Asic.Pipelet.Egress }
  in
  let advance loc idx = Traversal.advance (layout_at loc) chain idx in
  let state_id loc idx =
    let base = match loc with I g -> g | E g -> n + g in
    (base * (k + 1)) + idx
  in
  let n_states = 2 * n * (k + 1) in
  let dist = Array.make n_states max_int in
  let pred = Array.make n_states None in
  let same_switch a b = switch_of_pipeline t a = switch_of_pipeline t b in
  let edges loc idx =
    let idx' = advance loc idx in
    match loc with
    | I g ->
        let egress_moves =
          List.filter_map
            (fun q ->
              if same_switch g q then
                Some
                  ( 0,
                    (E q, idx'),
                    [ Ingress_pass { global_pipeline = g; idx_out = idx' };
                      To_egress { global_pipeline = q; idx_out = idx' } ] )
              else None)
            (List.init n Fun.id)
        in
        let resubmit_moves =
          if advance (I g) idx' > idx' then
            [
              ( resubmit_cost,
                (I g, idx'),
                [ Ingress_pass { global_pipeline = g; idx_out = idx' }; Resubmit ] );
            ]
          else []
        in
        egress_moves @ resubmit_moves
    | E q ->
        let s = switch_of_pipeline t q in
        let recirc = [ (recirc_cost, (I q, idx'), [ Recirc ]) ] in
        let hop =
          if s + 1 < t.n_switches then
            (* The uplink lands in the next switch's pipeline 0. *)
            let next_ingress = global_pipeline t ~switch:(s + 1) ~pipeline:0 in
            [ (hop_cost, (I next_ingress, idx'), [ Hop { to_switch = s + 1 } ]) ]
          else []
        in
        recirc @ hop
  in
  let decode s =
    let base = s / (k + 1) and idx = s mod (k + 1) in
    ((if base < n then I base else E (base - n)), idx)
  in
  let start = state_id (I entry_pipeline) 0 in
  dist.(start) <- 0;
  let visited = Array.make n_states false in
  let pq = Pqueue.create (2 * n_states) in
  Pqueue.push pq ~prio:0 start;
  let rec drain () =
    match Pqueue.pop pq with
    | None -> ()
    | Some (d, s) ->
        if (not visited.(s)) && d <= dist.(s) then begin
          visited.(s) <- true;
          let loc, idx = decode s in
          List.iter
            (fun (c, (loc', idx'), steps) ->
              let s' = state_id loc' idx' in
              if d + c < dist.(s') then begin
                dist.(s') <- d + c;
                pred.(s') <- Some (s, steps);
                Pqueue.push pq ~prio:(d + c) s'
              end)
            (edges loc idx)
        end;
        drain ()
  in
  drain ();
  (* Terminal: egress on the exit pipeline whose pass finishes the chain. *)
  let terminal = ref None in
  for s = 0 to n_states - 1 do
    if dist.(s) < max_int then begin
      match decode s with
      | E q, idx when q = exit_global && advance (E q) idx = k -> (
          match !terminal with
          | Some (_, d) when d <= dist.(s) -> ()
          | _ -> terminal := Some (s, dist.(s)))
      | (E _ | I _), _ -> ()
    end
  done;
  match !terminal with
  | None -> None
  | Some (s, _) ->
      let rec unwind s acc =
        match pred.(s) with
        | None -> acc
        | Some (s', steps) -> unwind s' (steps @ acc)
      in
      let steps = unwind s [] @ [ Emit ] in
      let count f = List.length (List.filter f steps) in
      Some
        {
          steps;
          recircs = count (function Recirc -> true | _ -> false);
          resubmits = count (function Resubmit -> true | _ -> false);
          hops = count (function Hop _ -> true | _ -> false);
        }

let latency_ns t path =
  let l = t.spec.Asic.Spec.lat in
  let pipe = Asic.Latency.pipe_pass_ns t.spec in
  List.fold_left
    (fun acc step ->
      match step with
      | Ingress_pass _ -> acc +. pipe
      | To_egress _ -> acc +. l.Asic.Spec.tm_ns +. pipe
      | Resubmit -> acc (* the re-pass is its own Ingress_pass *)
      | Recirc -> acc +. Asic.Latency.recirc_on_chip_ns t.spec
      | Hop _ -> acc +. Asic.Latency.recirc_off_chip_ns t.spec ~cable_m:t.cable_m
      | Emit -> acc)
    (2.0 *. l.Asic.Spec.mac_serdes_ns)
    path.steps

let cost t layout ~entry_pipeline ~exit_switch ~exit_pipeline chains =
  List.fold_left
    (fun acc (c : Chain.t) ->
      match acc with
      | None -> None
      | Some total -> (
          match
            solve t layout ~entry_pipeline ~exit_switch ~exit_pipeline
              c.Chain.nfs
          with
          | None -> None
          | Some p ->
              Some
                (total
                +. c.Chain.weight
                   *. (float_of_int p.recircs
                      +. (0.9 *. float_of_int p.resubmits)
                      +. (0.1 *. float_of_int p.hops)))))
    (Some 0.0) chains

(* --- placement --- *)

type strategy = Greedy_fill | Anneal of { iterations : int; seed : int }

let stages_needed resources_of pl_layout =
  let nf_count = List.length (Layout.nfs_of_pipelet pl_layout) in
  Layout.stage_demand resources_of pl_layout
  + (nf_count * Compiler.framework_stages_per_nf)
  + if nf_count > 0 then Compiler.framework_stages_fixed else 0

let all_pipelets t =
  List.concat_map
    (fun g ->
      [
        { Asic.Pipelet.pipeline = g; kind = Asic.Pipelet.Ingress };
        { Asic.Pipelet.pipeline = g; kind = Asic.Pipelet.Egress };
      ])
    (List.init (n_global_pipelines t) Fun.id)

let build_layout t ~resources_of ~chains assignment =
  let ids = List.sort_uniq Asic.Pipelet.compare_id (List.map snd assignment) in
  let order nfs =
    (* Chain-precedence order, as on a single switch. *)
    List.stable_sort
      (fun a b ->
        let pos nf =
          List.fold_left
            (fun acc (c : Chain.t) ->
              match Chain.position c nf with Some i -> min acc i | None -> acc)
            max_int chains
        in
        compare (pos a) (pos b))
      nfs
  in
  let budget = t.spec.Asic.Spec.stages_per_pipelet in
  let rec build acc = function
    | [] -> Some (List.rev acc)
    | id :: rest ->
        let nfs =
          order
            (List.filter_map
               (fun (nf, i) -> if Asic.Pipelet.equal_id i id then Some nf else None)
               assignment)
        in
        let seq = [ Layout.Seq nfs ] in
        if stages_needed resources_of seq <= budget then
          build ((id, seq) :: acc) rest
        else if
          List.length nfs > 1
          && stages_needed resources_of [ Layout.Par nfs ] <= budget
        then build ((id, [ Layout.Par nfs ]) :: acc) rest
        else None
  in
  build [] ids

let rec place t ~resources_of ~chains ~exit_switch ~exit_pipeline ~pinned strategy =
  let nfs =
    List.filter
      (fun nf -> not (List.mem_assoc nf pinned))
      (Chain.all_nfs chains)
  in
  let pipelets = Array.of_list (all_pipelets t) in
  let eval assignment =
    match build_layout t ~resources_of ~chains assignment with
    | None -> None
    | Some layout ->
        Option.map
          (fun c -> (layout, c))
          (cost t layout ~entry_pipeline:0 ~exit_switch ~exit_pipeline chains)
  in
  match strategy with
  | Greedy_fill ->
      (* Fill pipelets in forward order (switch by switch), packing as
         many chain-consecutive NFs per pipelet as fit — the natural
         "chain the switches back-to-back" plan of §7. *)
      let rec fill assignment cursor nfs =
        match nfs with
        | [] -> Ok assignment
        | nf :: rest ->
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
              if
                stages_needed resources_of [ Layout.Seq members ]
                <= t.spec.Asic.Spec.stages_per_pipelet
              then fill candidate cursor rest
              else fill assignment (cursor + 1) (nf :: rest)
      in
      Result.bind (fill pinned 0 nfs) (fun assignment ->
          match eval assignment with
          | Some r -> Ok r
          | None -> Error "cluster greedy: infeasible routing")
  | Anneal { iterations; seed } -> (
      let st = Random.State.make [| seed |] in
      let free = Array.of_list nfs in
      let current =
        Array.map
          (fun _ -> pipelets.(Random.State.int st (Array.length pipelets)))
          free
      in
      (* Seed from greedy when it works. *)
      (match place t ~resources_of ~chains ~exit_switch ~exit_pipeline ~pinned Greedy_fill with
      | Ok (layout, _) ->
          Array.iteri
            (fun i nf ->
              match Layout.location layout nf with
              | Some id -> current.(i) <- id
              | None -> ())
            free
      | Error _ -> ());
      let assignment_of arr =
        pinned @ Array.to_list (Array.mapi (fun i id -> (free.(i), id)) arr)
      in
      let score arr = Option.map snd (eval (assignment_of arr)) in
      let best = ref (Array.copy current) in
      let best_score = ref (score current) in
      let cur = ref (score current) in
      for it = 0 to iterations - 1 do
        let temp = 2.0 *. (1.0 -. (float_of_int it /. float_of_int iterations)) in
        let i = Random.State.int st (max 1 (Array.length free)) in
        if Array.length free > 0 then begin
          let old = current.(i) in
          current.(i) <- pipelets.(Random.State.int st (Array.length pipelets));
          let s = score current in
          let accept =
            match (s, !cur) with
            | Some nc, Some oc ->
                nc <= oc
                || Random.State.float st 1.0 < exp ((oc -. nc) /. max temp 1e-9)
            | Some _, None -> true
            | None, _ -> false
          in
          if accept then begin
            cur := s;
            match (s, !best_score) with
            | Some nc, Some bc when nc < bc ->
                best_score := s;
                best := Array.copy current
            | Some _, None ->
                best_score := s;
                best := Array.copy current
            | _ -> ()
          end
          else current.(i) <- old
        end
      done;
      match eval (assignment_of !best) with
      | Some r -> Ok r
      | None -> Error "cluster anneal: no feasible assignment found")

let pp_step ppf = function
  | Ingress_pass { global_pipeline; idx_out } ->
      Format.fprintf ppf "I%d[->%d]" global_pipeline idx_out
  | To_egress { global_pipeline; idx_out } ->
      Format.fprintf ppf "E%d[->%d]" global_pipeline idx_out
  | Resubmit -> Format.pp_print_string ppf "resubmit"
  | Recirc -> Format.pp_print_string ppf "recirc"
  | Hop { to_switch } -> Format.fprintf ppf "hop->sw%d" to_switch
  | Emit -> Format.pp_print_string ppf "emit"

let pp_path ppf p =
  Format.fprintf ppf "%a (recircs=%d resubmits=%d hops=%d)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       pp_step)
    p.steps p.recircs p.resubmits p.hops
