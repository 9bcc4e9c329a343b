type ingress_action = To_egress of int | Resubmit
type egress_action = Emit | Recirc | Hop

type step =
  | Ingress_step of {
      pipeline : int;
      idx_in : int;
      idx_out : int;
      action : ingress_action;
    }
  | Egress_step of {
      pipeline : int;
      idx_in : int;
      idx_out : int;
      action : egress_action;
    }

type path = { steps : step list; recircs : int; resubmits : int; hops : int }

let advance layout chain idx =
  let chain = Array.of_list chain in
  let k = Array.length chain in
  (* Cursor: last consumed (group, slot); -1 = before everything. *)
  let rec go idx gi si =
    if idx >= k then idx
    else
      match Layout.position layout chain.(idx) with
      | None -> idx
      | Some (g, s) ->
          if g > gi then go (idx + 1) g s
          else if g = gi && Layout.group_kind layout g = `Seq && s > si then
            go (idx + 1) g s
          else idx
  in
  go idx (-1) (-1)

(* Dijkstra over (location, chain position) with recirculations as the
   dominant cost, resubmissions as tie-break, and cable hops cheapest:
   they cost latency, not loopback bandwidth. *)

type loc = I of int | E of int

let recirc_cost = 1000
let resubmit_cost = 900
let hop_cost = 100

(* [switches] identical chips chained back to back, their [n] pipelines
   numbered switch by switch: each switch owns [n / switches] of them,
   and an egress's cable lands on the next switch's first pipeline. *)
let per_switch n ~switches =
  if switches < 1 || n mod switches <> 0 then
    invalid_arg "Traversal: switches must divide the pipelines";
  n / switches

let count_steps steps =
  List.fold_left
    (fun (recircs, resubmits, hops) -> function
      | Egress_step { action = Recirc; _ } -> (recircs + 1, resubmits, hops)
      | Egress_step { action = Hop; _ } -> (recircs, resubmits, hops + 1)
      | Ingress_step { action = Resubmit; _ } -> (recircs, resubmits + 1, hops)
      | Egress_step { action = Emit; _ } | Ingress_step { action = To_egress _; _ }
        ->
          (recircs, resubmits, hops))
    (0, 0, 0) steps

(* --- reference solver ---------------------------------------------- *)

(* The original array-scan Dijkstra: O(V^2) min-extraction, per-call
   [Layout.position] list walks, every edge generated, nothing pruned.
   Kept as the oracle the heap-based [solve] is property-tested
   against. *)

let solve_reference ?(start_idx = 0) ?(switches = 1) spec layout ~entry_pipeline
    ~exit_port chain =
  let k = List.length chain in
  let n = spec.Asic.Spec.n_pipelines in
  let per = per_switch n ~switches in
  let exit_pipe = Asic.Spec.port_pipeline spec exit_port in
  let layout_at loc =
    match loc with
    | I p -> Layout.layout_of layout { Asic.Pipelet.pipeline = p; kind = Asic.Pipelet.Ingress }
    | E p -> Layout.layout_of layout { Asic.Pipelet.pipeline = p; kind = Asic.Pipelet.Egress }
  in
  (* State encoding for the distance arrays. *)
  let state_id loc idx =
    let base = match loc with I p -> p | E p -> n + p in
    (base * (k + 1)) + idx
  in
  let n_states = 2 * n * (k + 1) in
  let dist = Array.make n_states max_int in
  let pred = Array.make n_states None in
  (* Edges out of a state: (cost, state', step describing the move). *)
  let edges loc idx =
    let idx' = advance (layout_at loc) chain idx in
    match loc with
    | I p ->
        let egress_moves =
          List.init per (fun i ->
              let q = (p / per * per) + i in
              ( 0,
                (E q, idx'),
                Ingress_step
                  { pipeline = p; idx_in = idx; idx_out = idx'; action = To_egress q } ))
        in
        let resubmit_moves =
          if advance (layout_at (I p)) chain idx' > idx' then
            [
              ( resubmit_cost,
                (I p, idx'),
                Ingress_step
                  { pipeline = p; idx_in = idx; idx_out = idx'; action = Resubmit } );
            ]
          else []
        in
        egress_moves @ resubmit_moves
    | E q ->
        let recirc =
          [
            ( recirc_cost,
              (I q, idx'),
              Egress_step
                { pipeline = q; idx_in = idx; idx_out = idx'; action = Recirc } );
          ]
        in
        let next = ((q / per) + 1) * per in
        let hop =
          if next < n then
            [
              ( hop_cost,
                (I next, idx'),
                Egress_step
                  { pipeline = q; idx_in = idx; idx_out = idx'; action = Hop } );
            ]
          else []
        in
        recirc @ hop
  in
  let decode s =
    let base = s / (k + 1) and idx = s mod (k + 1) in
    let loc = if base < n then I base else E (base - n) in
    (loc, idx)
  in
  let start = state_id (I entry_pipeline) (min start_idx k) in
  dist.(start) <- 0;
  let visited = Array.make n_states false in
  let rec loop () =
    (* Extract the cheapest unvisited state. *)
    let best = ref None in
    Array.iteri
      (fun s d ->
        if (not visited.(s)) && d < max_int then
          match !best with
          | Some (_, bd) when bd <= d -> ()
          | _ -> best := Some (s, d))
      dist;
    match !best with
    | None -> ()
    | Some (s, d) ->
        visited.(s) <- true;
        let loc, idx = decode s in
        List.iter
          (fun (c, (loc', idx'), step) ->
            let s' = state_id loc' idx' in
            if d + c < dist.(s') then begin
              dist.(s') <- d + c;
              pred.(s') <- Some (s, step)
            end)
          (edges loc idx);
        loop ()
  in
  loop ();
  (* Terminal: an egress state on the exit pipeline whose pass completes
     the chain. *)
  let terminal = ref None in
  let check_terminal s =
    if dist.(s) < max_int then begin
      let loc, idx = decode s in
      match loc with
      | E q when q = exit_pipe ->
          let idx' = advance (layout_at loc) chain idx in
          if idx' = k then begin
            match !terminal with
            | Some (_, d, _) when d <= dist.(s) -> ()
            | _ ->
                let final_step =
                  Egress_step
                    { pipeline = q; idx_in = idx; idx_out = idx'; action = Emit }
                in
                terminal := Some (s, dist.(s), final_step)
          end
      | E _ | I _ -> ()
    end
  in
  for s = 0 to n_states - 1 do
    check_terminal s
  done;
  match !terminal with
  | None -> None
  | Some (s, _, final_step) ->
      let rec unwind s acc =
        match pred.(s) with
        | None -> acc
        | Some (s', step) -> unwind s' (step :: acc)
      in
      let steps = unwind s [] @ [ final_step ] in
      let recircs, resubmits, hops = count_steps steps in
      Some { steps; recircs; resubmits; hops }

(* --- fast solver ---------------------------------------------------- *)

(* Heap-based Dijkstra over the same state graph. The chain's NF
   coordinates are hoisted into int arrays up front, so the inner loop
   touches only ints: [adv.(l).(i)] is the chain position after one
   pass through location [l] (ingress p = l, egress p = n + p) starting
   at position [i]. Predecessors are stored as int codes (To_egress q =
   q, Resubmit = n, Recirc = n + 1, Hop = n + 2) so a solve allocates no
   step records until a caller asks for the step list.

   The solver core is parameterized by [lookup : nf -> (l, g, s, seq)
   option] — the NF's location id, (group, slot) there, and whether the
   group runs sequentially — instead of the layout itself, so the
   move-diff path can solve over the coordinate index it maintains
   incrementally without materializing a layout. This assumes each NF is
   placed at most once, which holds for every layout the placement
   solvers and compiler produce. *)

type core = {
  k : int;
  n : int;
  exit_pipe : int;
  adv : int array array;
  dist : int array;
  pred_state : int array;
  pred_code : int array;
  terminal : int;  (** terminal state id, or -1 when unroutable *)
}

(* [Layout.index] coordinates as the solver core's int lookup: location
   id (ingress p = p, egress p = n + p), group, slot, seq?. *)
let lookup_of_index n idx nf =
  match Hashtbl.find_opt idx nf with
  | None -> None
  | Some (c : Layout.coord) ->
      let l =
        match c.Layout.pipelet.Asic.Pipelet.kind with
        | Asic.Pipelet.Ingress -> c.Layout.pipelet.Asic.Pipelet.pipeline
        | Asic.Pipelet.Egress -> n + c.Layout.pipelet.Asic.Pipelet.pipeline
      in
      Some (l, c.Layout.group, c.Layout.slot, c.Layout.kind = `Seq)

let solve_core ~start_idx ~n ~switches ~entry_pipeline ~exit_pipe ~lookup
    chain_arr =
  let k = Array.length chain_arr in
  let n_locs = 2 * n in
  let sz = max k 1 in
  let nf_loc = Array.make sz (-1) in
  let nf_g = Array.make sz (-1) in
  let nf_s = Array.make sz (-1) in
  let nf_seq = Array.make sz false in
  let used = Array.make n_locs false in
  for i = 0 to k - 1 do
    match lookup chain_arr.(i) with
    | None -> nf_loc.(i) <- -1
    | Some (l, g, s, seq) ->
        nf_loc.(i) <- l;
        nf_g.(i) <- g;
        nf_s.(i) <- s;
        nf_seq.(i) <- seq;
        used.(l) <- true
  done;
  (* Per-pass advance rows, computed only for locations hosting chain
     NFs; everything else shares the identity row (a pass there
     consumes nothing). *)
  let identity_row = Array.init (k + 1) (fun i -> i) in
  let adv = Array.make n_locs identity_row in
  for l = 0 to n_locs - 1 do
    if used.(l) then begin
      let row = Array.make (k + 1) 0 in
      for idx0 = 0 to k do
        let rec go idx gi si =
          if idx >= k || nf_loc.(idx) <> l then idx
          else
            let g = nf_g.(idx) in
            if g > gi then go (idx + 1) g nf_s.(idx)
            else if g = gi && nf_seq.(idx) && nf_s.(idx) > si then
              go (idx + 1) g nf_s.(idx)
            else idx
        in
        row.(idx0) <- go idx0 (-1) (-1)
      done;
      adv.(l) <- row
    end
  done;
  (* Switch geometry, once per solve: an ingress reaches the egresses
     [first.(p)] to [first.(p) + per - 1] of its own switch, and an
     egress's cable lands on ingress [first.(q) + per], if that is a
     pipeline. *)
  let per = per_switch n ~switches in
  let first = Array.init n (fun p -> p / per * per) in
  (* A detour through pipeline q hosting none of the chain's NFs (and
     which is not the exit) never helps: an ingress can already reach
     any egress of its switch directly, and every egress of a switch
     cables to the same next ingress. Prune those egress targets, but
     keep one egress on each switch that has none left, so the packet
     can still cross it. *)
  let useful = Array.make n false in
  useful.(exit_pipe) <- true;
  for q = 0 to n - 1 do
    if used.(q) || used.(n + q) then useful.(q) <- true
  done;
  for sw = 0 to switches - 1 do
    let lo = sw * per in
    let kept = ref false in
    for q = lo to lo + per - 1 do
      if useful.(q) then kept := true
    done;
    if not !kept then useful.(lo) <- true
  done;
  let n_states = n_locs * (k + 1) in
  let state_id base idx = (base * (k + 1)) + idx in
  let dist = Array.make n_states max_int in
  let pred_state = Array.make n_states (-1) in
  let pred_code = Array.make n_states (-1) in
  let visited = Array.make n_states false in
  let pq = Pqueue.create (2 * n_states) in
  let start = state_id entry_pipeline (min start_idx k) in
  dist.(start) <- 0;
  Pqueue.push pq ~prio:0 start;
  let rec drain () =
    match Pqueue.pop pq with
    | None -> ()
    | Some (d, s) ->
        if (not visited.(s)) && d <= dist.(s) then begin
          visited.(s) <- true;
          let base = s / (k + 1) and idx = s mod (k + 1) in
          let idx' = adv.(base).(idx) in
          if base < n then begin
            let p = base in
            for q = first.(p) to first.(p) + per - 1 do
              if useful.(q) then begin
                let s' = state_id (n + q) idx' in
                if d < dist.(s') then begin
                  dist.(s') <- d;
                  pred_state.(s') <- s;
                  pred_code.(s') <- q;
                  Pqueue.push pq ~prio:d s'
                end
              end
            done;
            if adv.(p).(idx') > idx' then begin
              let s' = state_id p idx' in
              if d + resubmit_cost < dist.(s') then begin
                dist.(s') <- d + resubmit_cost;
                pred_state.(s') <- s;
                pred_code.(s') <- n;
                Pqueue.push pq ~prio:(d + resubmit_cost) s'
              end
            end
          end
          else begin
            let q = base - n in
            let s' = state_id q idx' in
            if d + recirc_cost < dist.(s') then begin
              dist.(s') <- d + recirc_cost;
              pred_state.(s') <- s;
              pred_code.(s') <- n + 1;
              Pqueue.push pq ~prio:(d + recirc_cost) s'
            end;
            let h = first.(q) + per in
            if h < n then begin
              let s' = state_id h idx' in
              if d + hop_cost < dist.(s') then begin
                dist.(s') <- d + hop_cost;
                pred_state.(s') <- s;
                pred_code.(s') <- n + 2;
                Pqueue.push pq ~prio:(d + hop_cost) s'
              end
            end
          end
        end;
        drain ()
  in
  drain ();
  (* Terminal: an egress state on the exit pipeline whose pass completes
     the chain. Scanned in state-id order, exactly like the reference. *)
  let terminal = ref (-1) in
  let exit_base = n + exit_pipe in
  for idx = 0 to k do
    let s = state_id exit_base idx in
    if dist.(s) < max_int && adv.(exit_base).(idx) = k then
      if !terminal < 0 || dist.(s) < dist.(!terminal) then terminal := s
  done;
  { k; n; exit_pipe; adv; dist; pred_state; pred_code; terminal = !terminal }

let solve ?(start_idx = 0) ?(switches = 1) spec layout ~entry_pipeline
    ~exit_port chain =
  let n = spec.Asic.Spec.n_pipelines in
  let exit_pipe = Asic.Spec.port_pipeline spec exit_port in
  let idx = Layout.index layout in
  let chain_arr = Array.of_list chain in
  let c =
    solve_core ~start_idx ~n ~switches ~entry_pipeline ~exit_pipe
      ~lookup:(lookup_of_index n idx) chain_arr
  in
  if c.terminal < 0 then None
  else begin
    let rec unwind s acc =
      let p = c.pred_state.(s) in
      if p < 0 then acc
      else
        let base = p / (c.k + 1) and idx = p mod (c.k + 1) in
        let idx' = c.adv.(base).(idx) in
        let code = c.pred_code.(s) in
        let step =
          if base < c.n then
            Ingress_step
              {
                pipeline = base;
                idx_in = idx;
                idx_out = idx';
                action = (if code < c.n then To_egress code else Resubmit);
              }
          else
            Egress_step
              {
                pipeline = base - c.n;
                idx_in = idx;
                idx_out = idx';
                action = (if code = c.n + 1 then Recirc else Hop);
              }
        in
        unwind p (step :: acc)
    in
    let term_idx = c.terminal mod (c.k + 1) in
    let final_step =
      Egress_step
        { pipeline = c.exit_pipe; idx_in = term_idx; idx_out = c.k; action = Emit }
    in
    let steps = unwind c.terminal [] @ [ final_step ] in
    let recircs, resubmits, hops = count_steps steps in
    Some { steps; recircs; resubmits; hops }
  end

(* (recircs, resubmits, hops) only — the move-diff path needs no step
   records, just a walk over the predecessor codes. *)
let solve_counts ~start_idx ~n ~switches ~entry_pipeline ~exit_pipe ~lookup
    chain_arr =
  let c =
    solve_core ~start_idx ~n ~switches ~entry_pipeline ~exit_pipe ~lookup
      chain_arr
  in
  if c.terminal < 0 then None
  else begin
    let recircs = ref 0 and resubmits = ref 0 and hops = ref 0 in
    let s = ref c.terminal in
    while c.pred_state.(!s) >= 0 do
      let code = c.pred_code.(!s) in
      if code = c.n then incr resubmits
      else if code = c.n + 1 then incr recircs
      else if code = c.n + 2 then incr hops;
      s := c.pred_state.(!s)
    done;
    Some (!recircs, !resubmits, !hops)
  end

(* --- weighted objective --------------------------------------------- *)

(* The single definition of a chain's contribution to the objective.
   Every scoring path (reference, fast, incremental) adds these
   left-to-right in chain order, so their floats are bit-identical. *)
let chain_transition_cost (c : Chain.t) ~recircs ~resubmits ~hops =
  c.Chain.weight
  *. (float_of_int recircs
     +. (0.9 *. float_of_int resubmits)
     +. (0.1 *. float_of_int hops))

(* The objective over [chains], given each chain's (recircs,
   resubmits, hops): [None] as soon as one is unroutable. *)
let sum_chains counts chains =
  List.fold_left
    (fun acc (c : Chain.t) ->
      match acc with
      | None -> None
      | Some total -> (
          match counts c with
          | None -> None
          | Some (recircs, resubmits, hops) ->
              Some (total +. chain_transition_cost c ~recircs ~resubmits ~hops)))
    (Some 0.0) chains

(* The layout indexed once for every chain, and each chain's counts
   walked off the solver's predecessors, with no step list. *)
let cost ?(switches = 1) spec layout ~entry_pipeline chains =
  let n = spec.Asic.Spec.n_pipelines in
  let lookup = lookup_of_index n (Layout.index layout) in
  sum_chains
    (fun c ->
      solve_counts ~start_idx:0 ~n ~switches ~entry_pipeline
        ~exit_pipe:(Asic.Spec.port_pipeline spec c.Chain.exit_port)
        ~lookup (Array.of_list c.Chain.nfs))
    chains

let cost_reference ?switches spec layout ~entry_pipeline chains =
  sum_chains
    (fun c ->
      Option.map
        (fun p -> (p.recircs, p.resubmits, p.hops))
        (solve_reference ?switches spec layout ~entry_pipeline
           ~exit_port:c.Chain.exit_port c.Chain.nfs))
    chains

(* --- normalized keyed counts (the move-diff path) -------------------- *)

(* The counts are invariant under two relabelings of the coordinates,
   and the keyed cache canonicalizes both away:

   - Groups and slots. [solve_core] only ever compares a chain NF's
     (group, slot) against those of other chain NFs at the same location
     ([go]'s [g > gi] and [g = gi && seq && s > si]), so any relabeling
     preserving — per location, among the chain's own NFs — group order,
     group equality, slot order within a group, and the seq flag keeps
     the counts. The key stores group/slot {e ranks} among the chain's
     NFs at that location: unrelated NFs leaving or joining a pipelet
     shift absolute slots but leave every other chain's key unchanged,
     which is what lets {!Placement}'s move-diff annealer skip
     co-resident chains entirely.

   - Pipelines. The transition graph is symmetric across pipelines (an
     ingress reaches any egress at equal cost; recirculation and
     resubmission stay within a pipeline; pipelines hosting no chain NF
     are pruned unless they are the exit), so any permutation of
     pipeline numbers fixing the entry and exit keeps the counts. The
     key renames pipelines to first-use order: entry = 0, then each
     pipeline as a chain NF first appears on it, the exit pipe last.
     Isomorphic placements on different pipelines — the bulk of a
     many-pipeline switch's move space — share one entry.

     Across switches the graph is not symmetric: an ingress reaches
     only its own switch's egresses, and cables run forward and land on
     each switch's first pipeline, so a first-use renaming would give
     placements on different switches one key. With [switches > 1] the
     key keeps the pipeline numbers as they are.

   Counting NFs (not distinct values) as the rank is valid: it is
   monotone in the ranked value and equal exactly when the values are.
   The canonical instance a key describes determines the counts
   outright, so equal keys imply equal counts. *)

let chain_key index spec ~switches ~entry_pipeline (c : Chain.t) =
  let n = spec.Asic.Spec.n_pipelines in
  let nfs = Array.of_list c.Chain.nfs in
  let k = Array.length nfs in
  let sz = max k 1 in
  let pipe = Array.make sz (-1) in
  let egress = Array.make sz false in
  let g = Array.make sz (-1) in
  let s = Array.make sz (-1) in
  let sq = Array.make sz false in
  for i = 0 to k - 1 do
    match Hashtbl.find_opt index nfs.(i) with
    | None -> ()
    | Some (co : Layout.coord) ->
        pipe.(i) <- co.Layout.pipelet.Asic.Pipelet.pipeline;
        egress.(i) <- co.Layout.pipelet.Asic.Pipelet.kind = Asic.Pipelet.Egress;
        g.(i) <- co.Layout.group;
        s.(i) <- co.Layout.slot;
        sq.(i) <- co.Layout.kind = `Seq
  done;
  (* Canonical pipeline numbers, assigned in first-use order on one
     switch. *)
  let canon = Array.make n (-1) in
  let next = ref 0 in
  let canon_of p =
    if switches > 1 then p
    else begin
      if canon.(p) < 0 then begin
        canon.(p) <- !next;
        incr next
      end;
      canon.(p)
    end
  in
  ignore (canon_of entry_pipeline);
  let key = Array.make (k + 1) 0 in
  (* radix k+1: grank/srank count chain NFs, so both are < k+1 *)
  let radix = k + 1 in
  for i = 0 to k - 1 do
    if pipe.(i) < 0 then key.(i + 1) <- -1
    else begin
      let grank = ref 0 and srank = ref 0 in
      for j = 0 to k - 1 do
        if pipe.(j) = pipe.(i) && egress.(j) = egress.(i) then begin
          if g.(j) < g.(i) then incr grank;
          if g.(j) = g.(i) && s.(j) < s.(i) then incr srank
        end
      done;
      let loc = (canon_of pipe.(i) * 2) + if egress.(i) then 1 else 0 in
      key.(i + 1) <-
        ((((loc * radix) + !grank) * radix) + !srank) * 2
        + (if sq.(i) then 1 else 0)
    end
  done;
  key.(0) <- canon_of (Asic.Spec.port_pipeline spec c.Chain.exit_port);
  key

type kcache = (int array, (int * int * int) option) Hashtbl.t

let kcache_create () : kcache = Hashtbl.create 1024

(* Bound memory on pathological workloads; a reset just costs re-solves. *)
let max_cache_entries = 65536

let chain_counts_keyed cache spec ~switches ~index ~entry_pipeline
    (c : Chain.t) =
  let n = spec.Asic.Spec.n_pipelines in
  let key = chain_key index spec ~switches ~entry_pipeline c in
  match Hashtbl.find_opt cache key with
  | Some r -> r
  | None ->
      let r =
        solve_counts ~start_idx:0 ~n ~switches ~entry_pipeline
          ~exit_pipe:(Asic.Spec.port_pipeline spec c.Chain.exit_port)
          ~lookup:(lookup_of_index n index)
          (Array.of_list c.Chain.nfs)
      in
      if Hashtbl.length cache >= max_cache_entries then Hashtbl.reset cache;
      Hashtbl.add cache key r;
      r

let pp_step ppf = function
  | Ingress_step { pipeline; idx_in; idx_out; action } ->
      Format.fprintf ppf "I%d[%d->%d]%s" pipeline idx_in idx_out
        (match action with
        | To_egress q -> Printf.sprintf " ->E%d" q
        | Resubmit -> " resubmit")
  | Egress_step { pipeline; idx_in; idx_out; action } ->
      Format.fprintf ppf "E%d[%d->%d]%s" pipeline idx_in idx_out
        (match action with Emit -> " emit" | Recirc -> " recirc" | Hop -> " hop")

let pp_path ppf t =
  Format.fprintf ppf "%a (recircs=%d resubmits=%d%s)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       pp_step)
    t.steps t.recircs t.resubmits
    (if t.hops > 0 then Printf.sprintf " hops=%d" t.hops else "")
