type t = {
  name : string;
  parser : Parser_graph.t;
  tables : Table.t list;
  registers : Register.t list;
  control : Control.t;
  deparse_order : string list;
}

let make ?(registers = []) ~name ~parser ~tables ~control ~deparse_order () =
  let names = List.map Table.name tables in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg (Printf.sprintf "Program.make %s: duplicate table names" name);
  let rnames = List.map Register.name registers in
  if List.length (List.sort_uniq String.compare rnames) <> List.length rnames
  then
    invalid_arg (Printf.sprintf "Program.make %s: duplicate register names" name);
  { name; parser; tables; registers; control; deparse_order }

(* Tables and registers are the only mutable state a program owns; the
   parser, control tree and declarations are shared structurally.
   Compiling the copy's control binds it to the copied state, because
   compilation resolves tables and registers by name through
   [table_env]/[reg_env]. *)
let copy t =
  {
    t with
    tables = List.map Table.copy t.tables;
    registers = List.map Register.copy t.registers;
  }

let find_table t name =
  List.find_opt (fun tbl -> String.equal (Table.name tbl) name) t.tables

let find_register t name =
  List.find_opt (fun r -> String.equal (Register.name r) name) t.registers

let table_env t name = find_table t name
let reg_env t name = find_register t name

let registers_referenced t =
  let of_actions actions =
    List.concat_map Action.registers_used actions
  in
  let from_tables = List.concat_map (fun tbl -> of_actions (Table.actions tbl)) t.tables in
  let rec from_block block = List.concat_map from_stmt block
  and from_stmt = function
    | Control.Run prims -> of_actions [ Action.make "$x" prims ]
    | Control.Apply _ -> []
    | Control.Apply_hit (_, a, b) | Control.If (_, a, b) -> from_block a @ from_block b
    | Control.Apply_switch (_, branches, default) ->
        List.concat_map (fun (_, blk) -> from_block blk) branches
        @ from_block default
    | Control.Label (_, blk) -> from_block blk
  in
  List.sort_uniq String.compare (from_tables @ from_block t.control.Control.body)

let field_width t (r : Fieldref.t) =
  match Parser_graph.decl_for t.parser r.Fieldref.hdr with
  | Some d when Hdr.has_field d r.Fieldref.field ->
      Some (Hdr.field_width d r.Fieldref.field)
  | Some _ | None -> None

(* Every expression the program evaluates — gateway conditions, inline
   primitives and table actions — must be at most [Hdr.max_width] bits
   wide at every node, so the compiled int path and the [Bitval]
   reference (64-bit) compute the same values. *)
let check_widths t =
  let field_width = field_width t in
  let check where params e =
    let w = Expr.widest ~field_width ~params e in
    if w > Hdr.max_width then
      Error
        (Format.asprintf "program %s: %s: expression %a is bit<%d>, wider than %d"
           t.name where Expr.pp e w Hdr.max_width)
    else Ok ()
  in
  let prim_exprs = function
    | Action.Assign (_, e) | Action.Reg_read (_, _, e) -> [ e ]
    | Action.Reg_write (_, i, v) -> [ i; v ]
    | Action.Set_valid _ | Action.Set_invalid _ | Action.No_op -> []
  in
  let check_all where params es =
    List.fold_left (fun acc e -> Result.bind acc (fun () -> check where params e)) (Ok ()) es
  in
  let check_action where (a : Action.t) =
    check_all where a.Action.params (List.concat_map prim_exprs a.Action.body)
  in
  let rec check_block block =
    List.fold_left (fun acc s -> Result.bind acc (fun () -> check_stmt s)) (Ok ()) block
  and check_stmt = function
    | Control.Apply _ -> Ok ()
    | Control.Apply_hit (_, a, b) ->
        Result.bind (check_block a) (fun () -> check_block b)
    | Control.Apply_switch (_, branches, default) ->
        Result.bind (check_block (List.concat_map snd branches)) (fun () ->
            check_block default)
    | Control.If (cond, a, b) ->
        Result.bind (check "gateway" [] cond) (fun () ->
            Result.bind (check_block a) (fun () -> check_block b))
    | Control.Run prims -> check_all "inline action" [] (List.concat_map prim_exprs prims)
    | Control.Label (_, blk) -> check_block blk
  in
  List.fold_left
    (fun acc tbl ->
      List.fold_left
        (fun acc (a : Action.t) ->
          Result.bind acc (fun () ->
              check_action
                (Printf.sprintf "table %s action %s" (Table.name tbl) a.Action.name)
                a))
        acc (Table.actions tbl))
    (check_block t.control.Control.body)
    t.tables

let first problem l =
  match List.find_map problem l with Some m -> Error m | None -> Ok ()

(* Every table key is a parsed field at its declared width, so a table
   binds to any layout of the parser's declarations ({!Table.bind}). *)
let check_keys t =
  let problem tbl (k : Table.key) =
    let bad what =
      Some
        (Printf.sprintf "program %s: table %s: key %s %s" t.name (Table.name tbl)
           (Fieldref.to_string k.Table.field) what)
    in
    match field_width t k.Table.field with
    | Some w when w = k.Table.width -> None
    | Some w -> bad (Printf.sprintf "is bit<%d>, its field bit<%d>" k.Table.width w)
    | None -> bad "is not a parsed field"
  in
  first (fun tbl -> List.find_map (problem tbl) (Table.keys tbl)) t.tables

let validate t =
  let ( let* ) = Result.bind in
  let* () = Parser_graph.validate t.parser in
  let* () = Control.validate (table_env t) t.control in
  let* () = check_widths t in
  let* () = check_keys t in
  let* () =
    first
      (fun r ->
        if find_register t r <> None then None
        else Some (Printf.sprintf "program %s: unknown register %s" t.name r))
      (registers_referenced t)
  in
  first
    (fun h ->
      if Parser_graph.decl_for t.parser h <> None then None
      else Some (Printf.sprintf "program %s: deparse order names unknown header %s" t.name h))
    t.deparse_order

let exec_control ?trace ?label_counters t phv =
  Control.exec ?trace ?label_counters ~regs:(reg_env t) (table_env t) t.control
    phv

let compile_control ?label_counters ~layout t =
  Control.compile ?label_counters ~layout ~regs:(reg_env t) (table_env t)
    t.control

let pp ppf t =
  Format.fprintf ppf "@[<v>// program %s@,%a@,@," t.name Parser_graph.pp t.parser;
  List.iter (fun r -> Format.fprintf ppf "%a@," Register.pp r) t.registers;
  List.iter (fun tbl -> Format.fprintf ppf "%a@,@," Table.pp tbl) t.tables;
  Format.fprintf ppf "%a@]" Control.pp t.control

let empty ~name ~parser =
  {
    name;
    parser;
    tables = [];
    registers = [];
    control = Control.make (name ^ "_control") [];
    deparse_order = List.map (fun (d : Hdr.decl) -> d.Hdr.name) parser.Parser_graph.decls;
  }
