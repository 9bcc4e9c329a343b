type table_op =
  | Add of P4ir.Table.entry
  | Mod of P4ir.Table.entry
  | Del of P4ir.Table.entry
  | Clear

type op = Table of string * table_op | Reg_reset of string

let apply_table tbl top =
  match top with
  | Add e -> P4ir.Table.add_entry tbl e
  | Mod e -> P4ir.Table.mod_entry tbl e
  | Del e -> P4ir.Table.del_entry tbl e
  | Clear ->
      P4ir.Table.clear tbl;
      Ok ()

let apply chip o =
  match o with
  | Table (name, top) -> (
      match Asic.Chip.find_table chip name with
      | None -> Error (Printf.sprintf "ctrl: no table named %s" name)
      | Some tbl -> apply_table tbl top)
  | Reg_reset name -> (
      match Asic.Chip.find_register chip name with
      | None -> Error (Printf.sprintf "ctrl: no register named %s" name)
      | Some r ->
          P4ir.Register.clear r;
          Ok ())

let apply_all chip ops =
  let rec go i = function
    | [] -> Ok i
    | o :: rest -> (
        match apply chip o with
        | Ok () -> go (i + 1) rest
        | Error e -> Error (Printf.sprintf "op %d: %s" i e))
  in
  go 0 ops

(* --- State digest ---

   Canonical serialization of control-plane-visible state into a
   buffer, CRC-32 over the whole thing. Patterns are emitted as stored
   (the match key is canonicalized at first install and never rewritten
   by Mod), so two chips with the same op history serialize
   byte-identically. Not a perf path — runs at verification points. *)

let add_bv buf v =
  Buffer.add_string buf
    (Printf.sprintf "%d:%Lx;" (P4ir.Bitval.width v) (P4ir.Bitval.to_int64 v))

let add_pattern buf (p : P4ir.Table.pattern) =
  match p with
  | M_exact v ->
      Buffer.add_string buf "E";
      add_bv buf v
  | M_ternary { value; mask } ->
      Buffer.add_string buf "T";
      add_bv buf value;
      add_bv buf mask
  | M_lpm { value; prefix_len } ->
      Buffer.add_string buf (Printf.sprintf "L%d," prefix_len);
      add_bv buf value
  | M_range { lo; hi } ->
      Buffer.add_string buf "R";
      add_bv buf lo;
      add_bv buf hi
  | M_any -> Buffer.add_string buf "A;"

let add_entry_ser buf (e : P4ir.Table.entry) =
  Buffer.add_string buf (Printf.sprintf "|p%d[" e.priority);
  List.iter (add_pattern buf) e.patterns;
  Buffer.add_string buf (Printf.sprintf "]%s(" e.action);
  List.iter (add_bv buf) e.args;
  Buffer.add_string buf ")"

let add_table_ser buf tbl =
  Buffer.add_string buf (Printf.sprintf "table %s{" (P4ir.Table.name tbl));
  List.iter (add_entry_ser buf) (P4ir.Table.entries tbl);
  Buffer.add_string buf "}"

let add_register_ser buf r =
  Buffer.add_string buf (Printf.sprintf "reg %s{" (P4ir.Register.name r));
  P4ir.Register.fold
    (fun i v () ->
      Buffer.add_string buf (Printf.sprintf "%d=" i);
      add_bv buf v)
    r ();
  Buffer.add_string buf "}"

let crc_of_buffer buf =
  let b = Buffer.to_bytes buf in
  Netpkt.Bytes_util.crc32 b ~off:0 ~len:(Bytes.length b)

let state_digest chip =
  let buf = Buffer.create 4096 in
  List.iter
    (fun pl ->
      let prog = Asic.Pipelet.program pl in
      List.iter (add_table_ser buf) prog.P4ir.Program.tables;
      List.iter (add_register_ser buf) prog.P4ir.Program.registers)
    (Asic.Chip.pipelets chip);
  crc_of_buffer buf
