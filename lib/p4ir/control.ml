type stmt =
  | Apply of string
  | Apply_hit of string * block * block
  | Apply_switch of string * (string * block) list * block
  | If of Expr.t * block * block
  | Run of Action.prim list
  | Label of string * block

and block = stmt list

type t = { name : string; body : block }

let make name body = { name; body }

type table_env = string -> Table.t option

type trace_event = Telemetry.Journey.event =
  | T_table of string * string * bool
  | T_gateway of string * bool
  | T_enter of string

let find_table env name =
  match env name with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Control.exec: unknown table %s" name)

let exec ?trace ?label_counters ?(regs = Action.no_regs) env t phv =
  let record ev = match trace with Some r -> r := ev :: !r | None -> () in
  let apply name =
    let table = find_table env name in
    let action_run, hit = Table.apply_reference ~regs table phv in
    record (T_table (name, action_run, hit));
    (action_run, hit)
  in
  let rec run_block block = List.iter run_stmt block
  and run_stmt = function
    | Apply name -> ignore (apply name)
    | Apply_hit (name, then_, else_) ->
        let _, hit = apply name in
        run_block (if hit then then_ else else_)
    | Apply_switch (name, branches, default) -> (
        let action_run, _ = apply name in
        match List.assoc_opt action_run branches with
        | Some block -> run_block block
        | None -> run_block default)
    | If (cond, then_, else_) ->
        let v = Expr.eval_bool { Expr.phv; params = [] } cond in
        (* Render the condition only when someone is collecting the
           trace — the asprintf is pure hot-path overhead otherwise. *)
        (match trace with
        | Some r -> r := T_gateway (Format.asprintf "%a" Expr.pp cond, v) :: !r
        | None -> ());
        run_block (if v then then_ else else_)
    | Run prims ->
        Action.run ~regs (Action.make "$inline" prims) ~args:[] phv
    | Label (name, block) ->
        (match label_counters with
        | Some f -> incr (f name)
        | None -> ());
        record (T_enter name);
        run_block block
  in
  run_block t.body

(* --- Precompiled controls: resolve table names, action dispatch and
   gateway expressions once against a PHV layout, execute closures per
   packet. The structure (and trace event order) mirrors [exec]
   statement for statement; the QCheck equivalence property in
   test_p4ir pins that. Each statement is one closure: a table apply
   calls {!Table.apply_index} itself, a gateway its shape-lowered test
   ({!Expr.lower}), and a block of up to three statements is one
   closure that calls them in order. Trace events are built only when
   a trace is being collected, so an untraced run allocates nothing
   here. --- *)

type compiled = trace_event list ref option -> Phv.t -> unit

let nop _ _ = ()

let block_of = function
  | [] -> nop
  | [ a ] -> a
  | [ a; b ] ->
      fun trace phv ->
        a trace phv;
        b trace phv
  | [ a; b; c ] ->
      fun trace phv ->
        a trace phv;
        b trace phv;
        c trace phv
  | stmts ->
      let stmts = Array.of_list stmts in
      fun trace phv ->
        for i = 0 to Array.length stmts - 1 do
          stmts.(i) trace phv
        done

let note_table trace name table code =
  match trace with
  | Some r ->
      r := T_table (name, Table.action_name table (code lsr 1), code land 1 = 1) :: !r
  | None -> ()

let compile ?label_counters ?(regs = Action.no_regs) ~layout env t =
  let bound name =
    let table = find_table env name in
    Table.bind table layout;
    table
  in
  let no_args = [||] in
  let rec compile_block block = block_of (List.map compile_stmt block)
  and compile_stmt = function
    | Apply name ->
        let table = bound name in
        fun trace phv -> note_table trace name table (Table.apply_index ~regs table phv)
    | Apply_hit (name, then_, else_) ->
        let table = bound name in
        let cthen = compile_block then_ in
        let celse = compile_block else_ in
        fun trace phv ->
          let code = Table.apply_index ~regs table phv in
          note_table trace name table code;
          if code land 1 = 1 then cthen trace phv else celse trace phv
    | Apply_switch (name, branches, default) ->
        let table = bound name in
        let cdefault = compile_block default in
        (* Branch per declared action, by position; the first branch
           naming an action wins, like [List.assoc_opt] in [exec]. *)
        let dispatch =
          Array.of_list
            (List.map
               (fun (act : Action.t) ->
                 match List.assoc_opt act.Action.name branches with
                 | Some blk -> compile_block blk
                 | None -> cdefault)
               (Table.actions table))
        in
        fun trace phv ->
          let code = Table.apply_index ~regs table phv in
          note_table trace name table code;
          dispatch.(code lsr 1) trace phv
    | If (cond, then_, else_) ->
        let test = (Expr.compile layout cond).Expr.run in
        (* The condition's text is read only by traces, so it is
           rendered at the first traced evaluation and kept. A plain
           cell, not [Lazy]: two domains racing on it both render the
           same string, where forcing one [Lazy.t] from two domains at
           once raises. *)
        let rendered = ref None in
        let render () =
          match !rendered with
          | Some s -> s
          | None ->
              let s = Format.asprintf "%a" Expr.pp cond in
              rendered := Some s;
              s
        in
        let cthen = compile_block then_ in
        let celse = compile_block else_ in
        fun trace phv ->
          let v = test phv no_args <> 0 in
          (match trace with
          | Some r -> r := T_gateway (render (), v) :: !r
          | None -> ());
          if v then cthen trace phv else celse trace phv
    | Run prims ->
        let crun = Action.compile ~layout (Action.make "$inline" prims) in
        fun _ phv -> crun regs no_args phv
    | Label (name, blk) -> (
        let cblk = compile_block blk in
        let enter trace =
          match trace with Some r -> r := T_enter name :: !r | None -> ()
        in
        (* The NF counter is resolved at compile time, so the per-packet
           cost of telemetry here is one [incr] — and recompiling
           without [label_counters] removes even that. *)
        match label_counters with
        | None ->
            fun trace phv ->
              enter trace;
              cblk trace phv
        | Some f ->
            let c = f name in
            fun trace phv ->
              incr c;
              enter trace;
              cblk trace phv)
  in
  compile_block t.body

let run_compiled ?trace (c : compiled) phv = c trace phv

let tables_used t =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let add name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      out := name :: !out
    end
  in
  let rec walk_block block = List.iter walk block
  and walk = function
    | Apply name -> add name
    | Apply_hit (name, a, b) ->
        add name;
        walk_block a;
        walk_block b
    | Apply_switch (name, branches, default) ->
        add name;
        List.iter (fun (_, blk) -> walk_block blk) branches;
        walk_block default
    | If (_, a, b) ->
        walk_block a;
        walk_block b
    | Run _ -> ()
    | Label (_, blk) -> walk_block blk
  in
  walk_block t.body;
  List.rev !out

let map_tables f t =
  let rec map_block block = List.map map_stmt block
  and map_stmt = function
    | Apply name -> Apply (f name)
    | Apply_hit (name, a, b) -> Apply_hit (f name, map_block a, map_block b)
    | Apply_switch (name, branches, default) ->
        Apply_switch
          ( f name,
            List.map (fun (act, blk) -> (act, map_block blk)) branches,
            map_block default )
    | If (cond, a, b) -> If (cond, map_block a, map_block b)
    | Run prims -> Run prims
    | Label (name, blk) -> Label (name, map_block blk)
  in
  { t with body = map_block t.body }

let gateway_count t =
  let rec count_block block = List.fold_left (fun acc s -> acc + count s) 0 block
  and count = function
    | If (_, a, b) -> 1 + count_block a + count_block b
    | Apply_hit (_, a, b) -> count_block a + count_block b
    | Apply_switch (_, branches, default) ->
        List.fold_left (fun acc (_, blk) -> acc + count_block blk) 0 branches
        + count_block default
    | Apply _ | Run _ -> 0
    | Label (_, blk) -> count_block blk
  in
  count_block t.body

let validate env t =
  let problem = ref None in
  let fail msg = if !problem = None then problem := Some msg in
  let check_table name k =
    match env name with
    | None -> fail (Printf.sprintf "control %s: unknown table %s" t.name name)
    | Some table -> k table
  in
  let rec walk_block block = List.iter walk block
  and walk = function
    | Apply name -> check_table name (fun _ -> ())
    | Apply_hit (name, a, b) ->
        check_table name (fun _ -> ());
        walk_block a;
        walk_block b
    | Apply_switch (name, branches, default) ->
        check_table name (fun table ->
            List.iter
              (fun (act, _) ->
                if Table.find_action table act = None then
                  fail
                    (Printf.sprintf "control %s: table %s has no action %s"
                       t.name name act))
              branches);
        List.iter (fun (_, blk) -> walk_block blk) branches;
        walk_block default
    | If (_, a, b) ->
        walk_block a;
        walk_block b
    | Run _ -> ()
    | Label (_, blk) -> walk_block blk
  in
  walk_block t.body;
  match !problem with None -> Ok () | Some msg -> Error msg

let pp ppf t =
  let rec pp_block ppf block =
    List.iter (fun s -> Format.fprintf ppf "%a@," pp_stmt s) block
  and pp_stmt ppf = function
    | Apply name -> Format.fprintf ppf "%s.apply();" name
    | Apply_hit (name, a, b) ->
        Format.fprintf ppf "@[<v 2>if (%s.apply().hit) {@,%a}@]" name pp_block a;
        if b <> [] then Format.fprintf ppf "@[<v 2> else {@,%a}@]" pp_block b
    | Apply_switch (name, branches, default) ->
        Format.fprintf ppf "@[<v 2>switch (%s.apply().action_run) {@," name;
        List.iter
          (fun (act, blk) ->
            Format.fprintf ppf "@[<v 2>%s: {@,%a}@]@," act pp_block blk)
          branches;
        if default <> [] then
          Format.fprintf ppf "@[<v 2>default: {@,%a}@]@," pp_block default;
        Format.fprintf ppf "}@]"
    | If (cond, a, b) ->
        Format.fprintf ppf "@[<v 2>if (%a) {@,%a}@]" Expr.pp cond pp_block a;
        if b <> [] then Format.fprintf ppf "@[<v 2> else {@,%a}@]" pp_block b
    | Run prims ->
        List.iter (fun prim -> Format.fprintf ppf "%a@," Action.pp_prim prim) prims
    | Label (name, blk) ->
        Format.fprintf ppf "@[<v 2>/* %s */ {@,%a}@]" name pp_block blk
  in
  Format.fprintf ppf "@[<v 2>control %s {@,%a}@]" t.name pp_block t.body
