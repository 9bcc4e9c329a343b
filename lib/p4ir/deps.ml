type kind = Match_dep | Action_dep | Successor_dep

type node = {
  table : string;
  reads : Fieldref.Set.t;
  writes : Fieldref.Set.t;
}

let table_reads table =
  let key_reads =
    List.fold_left
      (fun acc (k : Table.key) -> Fieldref.Set.add k.Table.field acc)
      Fieldref.Set.empty (Table.keys table)
  in
  List.fold_left
    (fun acc a -> Fieldref.Set.union acc (Action.reads a))
    key_reads (Table.actions table)

let table_writes table =
  List.fold_left
    (fun acc a -> Fieldref.Set.union acc (Action.writes a))
    Fieldref.Set.empty (Table.actions table)

let nodes_of_control env control =
  let get name =
    match env name with
    | Some t -> t
    | None -> invalid_arg (Printf.sprintf "Deps: unknown table %s" name)
  in
  let out = ref [] in
  let add guard name =
    let table = get name in
    out :=
      {
        table = name;
        reads = Fieldref.Set.union guard (table_reads table);
        writes = table_writes table;
      }
      :: !out
  in
  let rec walk_block guard block = List.iter (walk guard) block
  and walk guard = function
    | Control.Apply name -> add guard name
    | Control.Apply_hit (name, a, b) ->
        add guard name;
        (* Branch tables additionally depend on the guarding table's
           result; the result is not a field, so the successor relation is
           captured purely by program order. *)
        walk_block guard a;
        walk_block guard b
    | Control.Apply_switch (name, branches, default) ->
        add guard name;
        List.iter (fun (_, blk) -> walk_block guard blk) branches;
        walk_block guard default
    | Control.If (cond, a, b) ->
        let guard = Fieldref.Set.union guard (Expr.reads cond) in
        walk_block guard a;
        walk_block guard b
    | Control.Run _ -> ()
    | Control.Label (_, blk) -> walk_block guard blk
  in
  walk_block Fieldref.Set.empty control.Control.body;
  List.rev !out

let dep_between earlier later =
  if not (Fieldref.Set.is_empty (Fieldref.Set.inter earlier.writes later.reads))
  then Some Match_dep
  else if
    not (Fieldref.Set.is_empty (Fieldref.Set.inter earlier.writes later.writes))
  then Some Action_dep
  else Some Successor_dep

let stage_gap = function Match_dep | Action_dep -> 1 | Successor_dep -> 0

let min_stages env control =
  let nodes = nodes_of_control env control in
  let stages = Hashtbl.create 16 in
  let rec assign acc = function
    | [] -> List.rev acc
    | node :: rest ->
        let stage =
          List.fold_left
            (fun acc prev ->
              let prev_stage = Hashtbl.find stages prev.table in
              match dep_between prev node with
              | Some k -> max acc (prev_stage + stage_gap k)
              | None -> acc)
            0
            (List.filteri (fun i _ -> i < List.length acc) nodes)
        in
        Hashtbl.replace stages node.table stage;
        assign ((node.table, stage) :: acc) rest
  in
  let assigned = assign [] nodes in
  let total =
    List.fold_left (fun acc (_, s) -> max acc (s + 1)) 0 assigned
  in
  (assigned, total)
