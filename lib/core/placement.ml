type strategy =
  | Naive
  | Greedy
  | Anneal of { iterations : int; seed : int; initial_temp : float }
  | Exhaustive

let default_anneal = Anneal { iterations = 4000; seed = 1; initial_temp = 2.0 }

type input = {
  spec : Asic.Spec.t;
  switches : int;
  resources_of : string -> P4ir.Resources.t;
  chains : Chain.t list;
  entry_pipeline : int;
  pinned : (string * Asic.Pipelet.id) list;
}

(* Stages the framework adds to a pipelet per NF placed on it (the
   [check_nextNF] gate and the [check_sfcFlags] translation, §3.2), and
   once to a pipelet that hosts any NF (the branching table, §3.4). *)
let framework_stages_per_nf = 2
let framework_stages_fixed = 1

let stages_needed input layout =
  let nf_count = List.length (Layout.nfs_of_pipelet layout) in
  Layout.stage_demand input.resources_of layout
  + (nf_count * framework_stages_per_nf)
  + if nf_count > 0 then framework_stages_fixed else 0

let feasible input layout =
  List.for_all
    (fun (_, pl) -> stages_needed input pl <= input.spec.Asic.Spec.stages_per_pipelet)
    layout

(* Earliest position of an NF across chains, weighting heavier chains
   first for tie stability. *)
let rank_of chains nf =
  List.fold_left
    (fun acc (c : Chain.t) ->
      match Chain.position c nf with Some i -> min acc i | None -> acc)
    max_int chains

(* Order co-located NFs so that sequential composition follows the
   chains: topologically sort by weighted pairwise precedence (a before
   b when the heavier share of traffic visits a first), breaking ties
   and cycles by earliest chain position. *)
let canonical_order chains nfs =
  let prec a b =
    (* positive: a should come before b *)
    List.fold_left
      (fun acc (c : Chain.t) ->
        match (Chain.position c a, Chain.position c b) with
        | Some i, Some j when i < j -> acc +. c.Chain.weight
        | Some i, Some j when i > j -> acc -. c.Chain.weight
        | _ -> acc)
      0.0 chains
  in
  let by_rank =
    List.stable_sort (fun a b -> compare (rank_of chains a) (rank_of chains b)) nfs
  in
  (* Kahn's algorithm over the majority-precedence digraph. *)
  let rec topo placed remaining =
    match remaining with
    | [] -> List.rev placed
    | _ -> (
        let ready =
          List.filter
            (fun nf ->
              List.for_all
                (fun other ->
                  String.equal other nf || prec other nf <= 0.0)
                remaining)
            remaining
        in
        match ready with
        | nf :: _ ->
            topo (nf :: placed) (List.filter (fun o -> not (String.equal o nf)) remaining)
        | [] ->
            (* Precedence cycle (conflicting chains): fall back to rank
               order for the rest. *)
            List.rev placed @ remaining)
  in
  topo [] by_rank

(* The one fit rule for co-located NFs: chain-canonical order, [Seq]
   when the stage budget allows, [Par] fallback otherwise. Shared by
   the layout builder and the naive solver's fit check so no strategy
   can disagree with the evaluator about what fits. *)
let fit_pipelet input nfs =
  let ordered = canonical_order input.chains nfs in
  let budget = input.spec.Asic.Spec.stages_per_pipelet in
  let seq = [ Layout.Seq ordered ] in
  if stages_needed input seq <= budget then Some seq
  else if List.length ordered > 1 then begin
    let par = [ Layout.Par ordered ] in
    if stages_needed input par <= budget then Some par else None
  end
  else None

(* The NFs an assignment puts on pipelet [id], in assignment order. *)
let residents assignment id =
  List.filter_map
    (fun (nf, i) -> if Asic.Pipelet.equal_id i id then Some nf else None)
    assignment

(* The one layout builder: each pipelet's residents, fitted by [fit]
   (the fit rule itself, or the scorer's memo of it). *)
let build_layout_with fit assignment =
  let ids =
    List.sort_uniq Asic.Pipelet.compare_id (List.map snd assignment)
  in
  let rec build acc = function
    | [] -> Some (List.rev acc)
    | id :: rest -> (
        match fit (residents assignment id) with
        | Some pl -> build ((id, pl) :: acc) rest
        | None -> None)
  in
  build [] ids

let build_layout input assignment =
  build_layout_with (fit_pipelet input) assignment

let evaluate input layout =
  if not (feasible input layout) then None
  else
    Traversal.cost ~switches:input.switches input.spec layout
      ~entry_pipeline:input.entry_pipeline input.chains

(* --- scorer ---------------------------------------------------------- *)

(* The public backend selector: [Fast] is the production path (heap
   solver, fit memo, move-diff annealing); [Reference] is the
   array-scan oracle every fast path is proven against. *)
type scorer = Fast | Reference

(* Per-solve scorer state. [fit] caches [fit_pipelet] results keyed by
   the co-located NF list — valid only while [input.chains] is fixed, so
   callers that rewrite chains (greedy's truncation) must drop it. *)
type scorer_state = {
  scorer : scorer;
  fit : (string list, Layout.pipelet_layout option) Hashtbl.t option;
}

let make_scorer scorer =
  {
    scorer;
    fit = (match scorer with Fast -> Some (Hashtbl.create 256) | Reference -> None);
  }

let fit_pipelet_memo scorer input nfs =
  match scorer.fit with
  | None -> fit_pipelet input nfs
  | Some tbl -> (
      match Hashtbl.find_opt tbl nfs with
      | Some r -> r
      | None ->
          let r = fit_pipelet input nfs in
          Hashtbl.add tbl nfs r;
          r)

(* The layout builder already enforces the per-pipelet stage budget, so
   a built layout needs no second [feasible] pass — score it directly. *)
let evaluate_assignment ~scorer input assignment =
  match build_layout_with (fit_pipelet_memo scorer input) assignment with
  | None -> None
  | Some layout ->
      let cost =
        match scorer.scorer with
        | Fast -> Traversal.cost
        | Reference -> Traversal.cost_reference
      in
      Option.map
        (fun c -> (layout, c))
        (cost ~switches:input.switches input.spec layout
           ~entry_pipeline:input.entry_pipeline input.chains)

let all_nf_names input = Chain.all_nfs input.chains

let pipelet_choices input = Asic.Pipelet.all_ids input.spec

let free_nfs input =
  List.filter
    (fun nf -> not (List.mem_assoc nf input.pinned))
    (canonical_order input.chains (all_nf_names input))

(* --- move diffs ------------------------------------------------------ *)

module Move = struct
  type t = { nf : string; src : Asic.Pipelet.id; dst : Asic.Pipelet.id }
end

(* Incremental layout/scoring state for the annealer: the layout is held
   as per-pipelet (NF list, fitted groups) slots in a [compare_id]-sorted
   array over every pipelet of the spec, next to the live [Layout.index]
   coordinate table and the per-chain transition counts. Applying a
   [Move.t] re-fits only the two affected pipelets, re-indexes only
   their NFs, and re-solves only the chains the move could change —
   everything else (slots, coordinates, counts, memo entries) is reused
   verbatim, so the resulting layout, index and cost are identical to a
   from-scratch [build_layout]+score of the moved assignment
   (QCheck-tested against exactly that oracle).

   NF lists are kept in global assignment order ([d_order]), matching
   the [residents] order the layout builder derives from the assignment
   list, so the memoized [fit_pipelet] sees byte-identical keys on both
   paths. *)
type diff = {
  d_input : input;
  d_scorer : scorer_state;
  d_cache : Traversal.kcache;
  d_order : (string, int) Hashtbl.t;  (** NF -> position in the assignment *)
  d_chain_arr : Chain.t array;
  d_chains_of : (string, int list) Hashtbl.t;  (** NF -> chain indices *)
  d_ids : Asic.Pipelet.id array;  (** all pipelets, [compare_id]-sorted *)
  d_ord : (Asic.Pipelet.id, int) Hashtbl.t;  (** id -> index in [d_ids] *)
  d_slots : (string list * Layout.pipelet_layout option) option array;
      (** per-pipelet residents and their fit; [None] = hosts nothing *)
  mutable d_unfit : int;  (** pipelets whose fit failed *)
  d_index : (string, Layout.coord) Hashtbl.t;
      (** valid only while [d_unfit = 0] *)
  d_counts : (int * int * int) option array;
      (** per-chain, while [d_unfit = 0] *)
  mutable d_cost : float option;
  mutable d_pending : (unit -> unit) option;  (** undo of the staged move *)
}

(* Exactly [Traversal.cost]'s fold, over stored counts: same
   left-to-right adds via [chain_transition_cost], so incremental and
   from-scratch scores are bit-identical. *)
let cost_of_counts chains counts =
  let rec go i total = function
    | [] -> Some total
    | (c : Chain.t) :: rest -> (
        match counts.(i) with
        | None -> None
        | Some (recircs, resubmits, hops) ->
            go (i + 1)
              (total +. Traversal.chain_transition_cost c ~recircs ~resubmits ~hops)
              rest)
  in
  go 0 0.0 chains

let index_add_pipelet index id groups =
  List.iteri
    (fun gi g ->
      let kind, members =
        match g with
        | Layout.Seq nfs -> (`Seq, nfs)
        | Layout.Par nfs -> (`Par, nfs)
      in
      List.iteri
        (fun si nf ->
          Hashtbl.replace index nf
            { Layout.pipelet = id; group = gi; slot = si; kind })
        members)
    groups

(* Recompute index, counts and cost from the per-pipelet fits; only
   called while every pipelet fits. *)
let diff_refresh d =
  Hashtbl.reset d.d_index;
  Array.iteri
    (fun i slot ->
      match slot with
      | Some (_, Some groups) -> index_add_pipelet d.d_index d.d_ids.(i) groups
      | Some (_, None) | None -> ())
    d.d_slots;
  Array.iteri
    (fun i c ->
      d.d_counts.(i) <-
        Traversal.chain_counts_keyed d.d_cache d.d_input.spec
          ~switches:d.d_input.switches ~index:d.d_index
          ~entry_pipeline:d.d_input.entry_pipeline c)
    d.d_chain_arr;
  d.d_cost <- cost_of_counts d.d_input.chains d.d_counts

let diff_of_assignment ~scorer input assignment =
  let cache = Traversal.kcache_create () in
  let order = Hashtbl.create 32 in
  List.iteri (fun i (nf, _) -> Hashtbl.replace order nf i) assignment;
  let chains_of = Hashtbl.create 32 in
  List.iteri
    (fun ci (c : Chain.t) ->
      List.iter
        (fun nf ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt chains_of nf) in
          if not (List.mem ci cur) then Hashtbl.replace chains_of nf (ci :: cur))
        c.Chain.nfs)
    input.chains;
  (* Every pipelet of the spec gets a slot (moves may target empty
     ones); assignment ids outside the spec are merged in defensively
     for the public [diff_create]. *)
  let ids =
    Array.of_list
      (List.sort_uniq Asic.Pipelet.compare_id
         (Asic.Pipelet.all_ids input.spec @ List.map snd assignment))
  in
  let ord = Hashtbl.create (2 * Array.length ids) in
  Array.iteri (fun i id -> Hashtbl.replace ord id i) ids;
  let slots = Array.make (Array.length ids) None in
  List.iter
    (fun (_, id) ->
      let i = Hashtbl.find ord id in
      if slots.(i) = None then begin
        let nfs = residents assignment id in
        slots.(i) <- Some (nfs, fit_pipelet_memo scorer input nfs)
      end)
    assignment;
  let unfit =
    Array.fold_left
      (fun acc s -> match s with Some (_, None) -> acc + 1 | _ -> acc)
      0 slots
  in
  let d =
    {
      d_input = input;
      d_scorer = scorer;
      d_cache = cache;
      d_order = order;
      d_chain_arr = Array.of_list input.chains;
      d_chains_of = chains_of;
      d_ids = ids;
      d_ord = ord;
      d_slots = slots;
      d_unfit = unfit;
      d_index = Hashtbl.create 32;
      d_counts = Array.make (List.length input.chains) None;
      d_cost = None;
      d_pending = None;
    }
  in
  if unfit = 0 then diff_refresh d;
  d

let diff_create input assignment =
  diff_of_assignment ~scorer:(make_scorer Fast) input assignment

let diff_cost d = d.d_cost

let diff_layout d =
  if d.d_unfit > 0 then None
  else begin
    let acc = ref [] in
    for i = Array.length d.d_slots - 1 downto 0 do
      match d.d_slots.(i) with
      | Some (_, Some pl) -> acc := (d.d_ids.(i), pl) :: !acc
      | Some (_, None) -> assert false
      | None -> ()
    done;
    Some !acc
  end

let diff_index d = d.d_index

(* The grouping with [nf] deleted (empty groups dropped). When a
   re-fitted pipelet equals the old grouping minus the moved NF, the
   remaining NFs keep their relative order, group partition and kind —
   exactly the data {!Traversal.chain_key} normalizes over — so every
   chain not containing the moved NF keeps its counts and needs no
   re-solve at all. *)
let groups_minus groups nf =
  List.filter_map
    (fun gr ->
      let kind, members =
        match gr with
        | Layout.Seq m -> (`Seq, m)
        | Layout.Par m -> (`Par, m)
      in
      match List.filter (fun f -> not (String.equal f nf)) members with
      | [] -> None
      | m -> Some (match kind with `Seq -> Layout.Seq m | `Par -> Layout.Par m))
    groups

(* Stage a move: on [Some cost] the new state is live and must be
   either [diff_commit]ted or [diff_revert]ed; on [None] the candidate
   does not fit (or remains infeasible) and the state is unchanged
   apart from a no-op pending marker. *)
let diff_try d (m : Move.t) =
  if d.d_pending <> None then
    invalid_arg "Placement.diff: previous move neither committed nor reverted";
  if Asic.Pipelet.equal_id m.Move.src m.Move.dst then begin
    (* No-op move: candidate state = current state. *)
    d.d_pending <- Some (fun () -> ());
    d.d_cost
  end
  else begin
    let ord_of id =
      match Hashtbl.find_opt d.d_ord id with
      | Some o -> o
      | None -> invalid_arg "Placement.diff: unknown pipelet"
    in
    let so = ord_of m.Move.src in
    let dst_o = ord_of m.Move.dst in
    match d.d_slots.(so) with
    | None -> invalid_arg "Placement.diff: move source hosts no NFs"
    | Some (src_nfs, src_fit_old) ->
        if not (List.mem m.Move.nf src_nfs) then
          invalid_arg "Placement.diff: NF is not on the move source";
        let input = d.d_input in
        let src_nfs' =
          List.filter (fun f -> not (String.equal f m.Move.nf)) src_nfs
        in
        let old_dst_slot = d.d_slots.(dst_o) in
        let dst_nfs_old =
          match old_dst_slot with Some (nfs, _) -> nfs | None -> []
        in
        let nf_ord = Hashtbl.find d.d_order m.Move.nf in
        let rec insert = function
          | [] -> [ m.Move.nf ]
          | f :: rest ->
              if Hashtbl.find d.d_order f > nf_ord then m.Move.nf :: f :: rest
              else f :: insert rest
        in
        let dst_nfs' = insert dst_nfs_old in
        let src_slot' =
          match src_nfs' with
          | [] -> None (* pipelet emptied *)
          | l -> Some (l, fit_pipelet_memo d.d_scorer input l)
        in
        let dst_fit' = fit_pipelet_memo d.d_scorer input dst_nfs' in
        let unfit' =
          d.d_unfit
          - (if src_fit_old = None then 1 else 0)
          - (match old_dst_slot with Some (_, None) -> 1 | _ -> 0)
          + (match src_slot' with Some (_, None) -> 1 | _ -> 0)
          + (if dst_fit' = None then 1 else 0)
        in
        if unfit' > 0 then None (* candidate infeasible; nothing staged *)
        else begin
          let old_src_slot = d.d_slots.(so) in
          let old_cost = d.d_cost in
          let dst_slot' = Some (dst_nfs', dst_fit') in
          if d.d_unfit > 0 then begin
            (* Leaving an infeasible state: coordinates and counts were
               never valid, so rebuild them wholesale (rare — only ever
               right after an infeasible initial assignment). *)
            let old_unfit = d.d_unfit in
            let old_index =
              Hashtbl.fold (fun k v acc -> (k, v) :: acc) d.d_index []
            in
            let old_counts = Array.copy d.d_counts in
            d.d_slots.(so) <- src_slot';
            d.d_slots.(dst_o) <- dst_slot';
            d.d_unfit <- 0;
            diff_refresh d;
            d.d_pending <-
              Some
                (fun () ->
                  d.d_slots.(so) <- old_src_slot;
                  d.d_slots.(dst_o) <- old_dst_slot;
                  d.d_unfit <- old_unfit;
                  d.d_cost <- old_cost;
                  Array.blit old_counts 0 d.d_counts 0 (Array.length old_counts);
                  Hashtbl.reset d.d_index;
                  List.iter (fun (k, v) -> Hashtbl.replace d.d_index k v) old_index);
            d.d_cost
          end
          else begin
            (* Incremental path: only the two touched pipelets change
               coordinates, so at most their NFs' chains need
               re-solving — and when both re-fits preserve the
               co-residents' structure (the common case: the moved NF
               slots out of / into an otherwise unchanged grouping),
               only the moved NF's own chains do. *)
            let touched = src_nfs @ dst_nfs_old in
            let saved_index =
              List.map (fun f -> (f, Hashtbl.find_opt d.d_index f)) touched
            in
            List.iter (fun f -> Hashtbl.remove d.d_index f) touched;
            (match src_slot' with
            | Some (_, Some groups) -> index_add_pipelet d.d_index m.Move.src groups
            | Some (_, None) | None -> ());
            (match dst_fit' with
            | Some groups -> index_add_pipelet d.d_index m.Move.dst groups
            | None -> ());
            let src_preserved =
              match (src_fit_old, src_slot') with
              | Some old_groups, None -> groups_minus old_groups m.Move.nf = []
              | Some old_groups, Some (_, Some new_groups) ->
                  groups_minus old_groups m.Move.nf = new_groups
              | _ -> false
            in
            let dst_preserved =
              match dst_fit' with
              | Some new_groups ->
                  let old_groups =
                    match old_dst_slot with
                    | Some (_, Some g) -> g
                    | Some (_, None) | None -> []
                  in
                  groups_minus new_groups m.Move.nf = old_groups
              | None -> false
            in
            let affected =
              if src_preserved && dst_preserved then
                Option.value ~default:[]
                  (Hashtbl.find_opt d.d_chains_of m.Move.nf)
              else
                List.sort_uniq compare
                  (List.concat_map
                     (fun f ->
                       Option.value ~default:[]
                         (Hashtbl.find_opt d.d_chains_of f))
                     touched)
            in
            let saved_counts =
              List.map (fun i -> (i, d.d_counts.(i))) affected
            in
            List.iter
              (fun i ->
                d.d_counts.(i) <-
                  Traversal.chain_counts_keyed d.d_cache input.spec
                    ~switches:input.switches ~index:d.d_index
                    ~entry_pipeline:input.entry_pipeline d.d_chain_arr.(i))
              affected;
            d.d_slots.(so) <- src_slot';
            d.d_slots.(dst_o) <- dst_slot';
            d.d_cost <- cost_of_counts input.chains d.d_counts;
            d.d_pending <-
              Some
                (fun () ->
                  d.d_slots.(so) <- old_src_slot;
                  d.d_slots.(dst_o) <- old_dst_slot;
                  d.d_cost <- old_cost;
                  List.iter (fun (i, c) -> d.d_counts.(i) <- c) saved_counts;
                  List.iter
                    (fun (f, co) ->
                      match co with
                      | Some co -> Hashtbl.replace d.d_index f co
                      | None -> Hashtbl.remove d.d_index f)
                    saved_index);
            d.d_cost
          end
        end
  end

let diff_commit d = d.d_pending <- None

let diff_revert d =
  (match d.d_pending with Some undo -> undo () | None -> ());
  d.d_pending <- None

let diff_apply d m =
  match diff_try d m with
  | Some cost ->
      diff_commit d;
      `Applied cost
  | None ->
      diff_revert d;
      `Unfit


(* --- strategies --- *)

let solve_naive ~scorer input =
  let order = pipelet_choices input in
  let n = List.length order in
  (* Walk pipelets cyclically, advancing when the next NF no longer
     fits. The fit check is the same [fit_pipelet] the evaluator uses
     ([Seq] with [Par] fallback), so naive never rejects an assignment
     the evaluator would accept. *)
  let rec place assignment cursor tried nfs =
    match nfs with
    | [] -> Some assignment
    | nf :: rest ->
        if tried >= n then None
        else
          let id = List.nth order (cursor mod n) in
          let candidate = assignment @ [ (nf, id) ] in
          if Option.is_some (fit_pipelet input (residents candidate id)) then
            place candidate (cursor + 1) 0 rest
          else place assignment (cursor + 1) (tried + 1) (nf :: rest)
  in
  match place input.pinned 0 0 (free_nfs input) with
  | None -> Error "naive placement: NFs do not fit"
  | Some assignment -> (
      match evaluate_assignment ~scorer input assignment with
      | Some (layout, cost) -> Ok (layout, cost)
      | None -> Error "naive placement: produced an infeasible chain routing")

let better (a : float option) (b : float option) =
  match (a, b) with
  | Some x, Some y -> x < y
  | Some _, None -> true
  | None, (Some _ | None) -> false

let solve_greedy ~scorer input =
  (* The truncated chains below change what [canonical_order] returns,
     so the fit memo (keyed on NF lists alone) must not serve them. *)
  let truncated_scorer = { scorer with fit = None } in
  let choices = pipelet_choices input in
  let rec place assignment = function
    | [] -> Ok assignment
    | nf :: rest ->
        (* Evaluate each candidate pipelet against the chains truncated
           to the NFs placed so far. *)
        let truncated_input placed =
          {
            input with
            chains =
              List.map
                (fun (c : Chain.t) ->
                  {
                    c with
                    Chain.nfs =
                      List.filter (fun f -> List.mem_assoc f placed) c.Chain.nfs;
                  })
                input.chains;
          }
        in
        let best =
          List.fold_left
            (fun best id ->
              let candidate = assignment @ [ (nf, id) ] in
              let score =
                Option.map snd
                  (evaluate_assignment ~scorer:truncated_scorer
                     (truncated_input candidate) candidate)
              in
              match best with
              | Some (_, best_score) when not (better score (Some best_score)) ->
                  best
              | _ -> (
                  match score with Some s -> Some (candidate, s) | None -> best))
            None choices
        in
        (match best with
        | Some (candidate, _) -> place candidate rest
        | None -> Error (Printf.sprintf "greedy placement: cannot place %s" nf))
  in
  match place input.pinned (free_nfs input) with
  | Error e -> Error e
  | Ok assignment -> (
      match evaluate_assignment ~scorer input assignment with
      | Some (layout, cost) -> Ok (layout, cost)
      | None -> Error "greedy placement: final layout infeasible")

let solve_exhaustive ~scorer input =
  let free = free_nfs input in
  let choices = pipelet_choices input in
  let best = ref None in
  let rec go assignment = function
    | [] -> (
        match evaluate_assignment ~scorer input assignment with
        | None -> ()
        | Some (layout, cost) -> (
            match !best with
            | Some (_, _, c) when c <= cost -> ()
            | _ -> best := Some (layout, assignment, cost)))
    | nf :: rest ->
        List.iter (fun id -> go (assignment @ [ (nf, id) ]) rest) choices
  in
  go input.pinned free;
  match !best with
  | Some (layout, _, cost) -> Ok (layout, cost)
  | None -> Error "exhaustive placement: no feasible assignment"

(* How the annealing loop scores a candidate move: [try_move] stages it
   and returns the staged state's cost ([None]: unusable), then the loop
   either [keep]s or [drop]s it. *)
type evaluator = {
  try_move : Move.t -> float option;
  keep : unit -> unit;
  drop : unit -> unit;
}

(* [Fast]: a [diff] carries the layout, coordinate index and per-chain
   counts across iterations; each move re-fits two pipelets and
   re-solves only the chains it touched. *)
let diff_evaluator ~scorer input assignment =
  let d = diff_of_assignment ~scorer input assignment in
  ( diff_cost d,
    {
      try_move = diff_try d;
      keep = (fun () -> diff_commit d);
      drop = (fun () -> diff_revert d);
    } )

(* [Reference]: the oracle — every candidate assignment is rebuilt and
   scored whole. *)
let rebuild_evaluator ~scorer input assignment =
  let score a = Option.map snd (evaluate_assignment ~scorer input a) in
  let current = ref assignment and staged = ref assignment in
  ( score assignment,
    {
      try_move =
        (fun m ->
          staged :=
            List.map
              (fun (nf, id) ->
                if String.equal nf m.Move.nf then (nf, m.Move.dst) else (nf, id))
              !current;
          score !staged);
      keep = (fun () -> current := !staged);
      drop = ignore;
    } )

(* The one annealing loop. It starts from [start]'s locations (random
   where [start] is [None] or leaves an NF out). Both evaluators score a
   move to bit-identical values and the loop draws from the RNG the same
   way under either, so per seed [Fast] and [Reference] walk the same
   accept/reject trajectory and return the same layout. *)
let solve_anneal ~scorer input ~start ~iterations ~seed ~initial_temp =
  if free_nfs input = [] then
    match evaluate_assignment ~scorer input input.pinned with
    | Some (layout, cost) -> Ok (layout, cost)
    | None -> Error "anneal placement: pinned-only layout infeasible"
  else begin
    let free = Array.of_list (free_nfs input) in
    let st = Random.State.make [| seed |] in
    let choices = Array.of_list (pipelet_choices input) in
    let current =
      Array.map (fun _ -> choices.(Random.State.int st (Array.length choices))) free
    in
    Option.iter
      (fun layout ->
        Array.iteri
          (fun i nf ->
            match Layout.location layout nf with
            | Some id -> current.(i) <- id
            | None -> ())
          free)
      start;
    let assignment_of arr =
      input.pinned @ Array.to_list (Array.mapi (fun i id -> (free.(i), id)) arr)
    in
    let start, ev =
      (match scorer.scorer with
      | Fast -> diff_evaluator
      | Reference -> rebuild_evaluator)
        ~scorer input (assignment_of current)
    in
    let best_arr = ref (Array.copy current) in
    let best_score = ref start in
    let cur_score = ref start in
    for it = 0 to iterations - 1 do
      let temp =
        initial_temp *. (1.0 -. (float_of_int it /. float_of_int iterations))
      in
      let i = Random.State.int st (Array.length free) in
      let old = current.(i) in
      let candidate = choices.(Random.State.int st (Array.length choices)) in
      let s = ev.try_move { Move.nf = free.(i); src = old; dst = candidate } in
      let accept =
        match (s, !cur_score) with
        | Some new_c, Some old_c ->
            new_c <= old_c
            || Random.State.float st 1.0 < exp ((old_c -. new_c) /. max temp 1e-9)
        | Some _, None -> true
        | None, _ -> false
      in
      if accept then begin
        ev.keep ();
        current.(i) <- candidate;
        cur_score := s;
        if better s !best_score then begin
          best_score := s;
          best_arr := Array.copy current
        end
      end
      else ev.drop ()
    done;
    match evaluate_assignment ~scorer input (assignment_of !best_arr) with
    | Some (layout, cost) -> Ok (layout, cost)
    | None -> Error "anneal placement: no feasible assignment found"
  end

let anneal input ~start ~iterations ~seed ~initial_temp =
  solve_anneal ~scorer:(make_scorer Fast) input ~start ~iterations ~seed
    ~initial_temp

let solve ?(scorer = Fast) input strategy =
  let scorer = make_scorer scorer in
  match strategy with
  | Naive -> solve_naive ~scorer input
  | Greedy -> solve_greedy ~scorer input
  | Exhaustive -> solve_exhaustive ~scorer input
  | Anneal { iterations; seed; initial_temp } ->
      (* Start from greedy if it succeeds; otherwise from random. *)
      let start = Result.to_option (Result.map fst (solve_greedy ~scorer input)) in
      solve_anneal ~scorer input ~start ~iterations ~seed ~initial_temp

(* --- parallel restarts ----------------------------------------------- *)

type restart = { seed : int; cost : float option }

type parallel = {
  layout : Layout.t;
  cost : float;
  restarts : restart list;
}

let solve_parallel ?(iterations = 4000) ?(initial_temp = 2.0) ~domains ~seeds
    input =
  match seeds with
  | [] -> Error "parallel placement: no seeds"
  | _ ->
      (* Each task builds its own scorer state inside [solve], so every
         domain owns its caches outright — nothing is shared but the
         immutable input. Results come back in seed order and ties keep
         the earliest seed, so the merge is deterministic no matter how
         the domains interleave. *)
      let results =
        Dpool.run ~domains
          (List.map
             (fun seed () ->
               (seed, solve input (Anneal { iterations; seed; initial_temp })))
             seeds)
      in
      let restarts =
        List.map
          (fun (seed, r) ->
            { seed; cost = (match r with Ok (_, c) -> Some c | Error _ -> None) })
          results
      in
      let best =
        List.fold_left
          (fun acc (_, r) ->
            match (acc, r) with
            | None, Ok lc -> Some lc
            | Some (_, bc), Ok (l, c) when c < bc -> Some (l, c)
            | _, (Ok _ | Error _) -> acc)
          None results
      in
      (match best with
      | Some (layout, cost) -> Ok { layout; cost; restarts }
      | None -> Error "parallel placement: every restart failed")

let pp_strategy ppf = function
  | Naive -> Format.pp_print_string ppf "naive"
  | Greedy -> Format.pp_print_string ppf "greedy"
  | Exhaustive -> Format.pp_print_string ppf "exhaustive"
  | Anneal { iterations; seed; _ } ->
      Format.fprintf ppf "anneal(n=%d,seed=%d)" iterations seed
