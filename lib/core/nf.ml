type gate = Sfc_indexed | On_missing_sfc

type t = {
  name : string;
  description : string;
  parser : P4ir.Parser_graph.t;
  tables : P4ir.Table.t list;
  registers : P4ir.Register.t list;
  body : P4ir.Control.block;
  gate : gate;
}

let find_table t name =
  List.find_opt (fun tbl -> String.equal (P4ir.Table.name tbl) name) t.tables

let table_env t name = find_table t name
let control t = P4ir.Control.make (t.name ^ "_control") t.body

let find_register t rname =
  List.find_opt
    (fun r -> String.equal (P4ir.Register.name r) rname)
    t.registers

let make ~name ~description ~parser ~tables ?(registers = []) ~body
    ?(gate = Sfc_indexed) () =
  let t = { name; description; parser; tables; registers; body; gate } in
  let tnames = List.map P4ir.Table.name tables in
  if List.length (List.sort_uniq String.compare tnames) <> List.length tnames
  then invalid_arg (Printf.sprintf "Nf.make %s: duplicate table names" name);
  (match P4ir.Parser_graph.validate parser with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Nf.make %s: %s" name e));
  (match P4ir.Control.validate (table_env t) (control t) with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Nf.make %s: %s" name e));
  (* Register references must resolve within the NF. *)
  List.iter
    (fun (a : P4ir.Action.t) ->
      List.iter
        (fun rname ->
          if find_register t rname = None then
            invalid_arg
              (Printf.sprintf "Nf.make %s: unknown register %s" name rname))
        (P4ir.Action.registers_used a))
    (List.concat_map P4ir.Table.actions tables
    @ List.filter_map
        (function P4ir.Control.Run prims -> Some (P4ir.Action.make "$x" prims) | _ -> None)
        body);
  t

let resources t =
  let base = P4ir.Resources.of_control (table_env t) (control t) in
  let reg_srams =
    List.fold_left
      (fun acc r -> acc + P4ir.Register.sram_blocks r)
      0 t.registers
  in
  { base with P4ir.Resources.srams = base.P4ir.Resources.srams + reg_srams }

type registry = (string * (unit -> (t, string) result)) list

let instantiate registry name =
  match List.assoc_opt name registry with
  | Some create ->
      Result.map_error (fun e -> Printf.sprintf "NF %S: %s" name e) (create ())
  | None -> Error (Printf.sprintf "unknown NF %S" name)
