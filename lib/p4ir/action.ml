type prim =
  | Assign of Fieldref.t * Expr.t
  | Set_valid of string
  | Set_invalid of string
  | Reg_read of Fieldref.t * string * Expr.t
  | Reg_write of string * Expr.t * Expr.t
  | No_op

type t = { name : string; params : (string * int) list; body : prim list }

let make name ?(params = []) body = { name; params; body }
let no_op = make "NoAction" []

type reg_env = string -> Register.t option

let no_regs _ = None

let find_reg regs name =
  match regs name with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Action.run: unknown register %s" name)

let reg_index reg env idx_expr =
  Bitval.to_int (Expr.eval env idx_expr) land Register.index_mask reg

let check_arity t args =
  if List.length args <> List.length t.params then
    invalid_arg
      (Printf.sprintf "Action.run %s: expected %d args, got %d" t.name
         (List.length t.params) (List.length args))

(* Operands are evaluated in a fixed order (register, index, value)
   shared with the compiled form below, so both raise the same
   exception first. *)
let run ?(regs = no_regs) t ~args phv =
  check_arity t args;
  let params =
    List.map2 (fun (name, width) v -> (name, Bitval.resize v width)) t.params args
  in
  let env = { Expr.phv; params } in
  List.iter
    (fun prim ->
      match prim with
      | Assign (r, e) ->
          let v = Expr.eval env e in
          Phv.set phv r v
      | Set_valid h -> Phv.set_valid phv h
      | Set_invalid h -> Phv.set_invalid phv h
      | Reg_read (dst, rname, idx) ->
          let reg = find_reg regs rname in
          let v = Register.read reg (reg_index reg env idx) in
          Phv.set phv dst v
      | Reg_write (rname, idx, value) ->
          let reg = find_reg regs rname in
          let i = reg_index reg env idx in
          Register.write reg i (Expr.eval env value)
      | No_op -> ())
    t.body

(* Masking the raw value is [Bitval.resize] without its allocation;
   other widths take the resize (and its errors; 63- and 64-bit values
   keep their low 63 bits). *)
let bind_ints t args =
  check_arity t args;
  Array.of_list
    (List.map2
       (fun (_, width) v ->
         if 1 <= width && width <= Hdr.max_width then
           Int64.to_int (Bitval.to_int64 v) land Hdr.mask width
         else Int64.to_int (Bitval.to_int64 (Bitval.resize v width)))
       t.params args)

(* Compiled form: the prim list resolved once against a PHV layout to
   closures over cells — the int path, allocation-free, for PHVs of
   that layout only. Registers still resolve per call: the register
   environment arrives with the packet. *)
type compiled = reg_env -> int array -> Phv.t -> unit

(* A closure that raises [Not_found] like the name-resolved write would,
   after the operand it was given has been evaluated. *)
let cell_or_missing lay resolve x =
  match resolve lay x with c -> Some c | exception Not_found -> None

(* An assignment writes its destination cell from its source's operand
   in one closure: a cell, an immediate, an action datum, a cell plus a
   constant, or the source's code. *)
let compile_assign lay params r e =
  let width, src = Expr.lower ~params lay e in
  match cell_or_missing lay Phv.field_cell r with
  | Some c -> (
      let m = Hdr.mask (Phv.field_width lay r) in
      match src with
      | Expr.Cell s ->
          fun _ _ phv ->
            let cells = phv.Phv.cells in
            cells.(c) <- cells.(s) land m
      | Expr.Imm k ->
          let v = k land m in
          fun _ _ phv -> phv.Phv.cells.(c) <- v
      | Expr.Arg i -> fun _ args phv -> phv.Phv.cells.(c) <- args.(i) land m
      | Expr.Cell_add (s, k) ->
          let m = m land Hdr.mask width in
          fun _ _ phv ->
            let cells = phv.Phv.cells in
            cells.(c) <- (cells.(s) + k) land m
      | Expr.Code f ->
          fun _ args phv ->
            let v = f phv args in
            phv.Phv.cells.(c) <- v land m)
  | None ->
      let f = Expr.closure ~width src in
      fun _ args phv ->
        ignore (f phv args);
        raise Not_found

(* For a header the layout lacks, the name-resolved write [by_name],
   which raises [Not_found] as {!run}'s does. *)
let compile_validity lay h v by_name =
  match cell_or_missing lay Phv.valid_cell h with
  | Some c -> fun _ _ phv -> phv.Phv.cells.(c) <- v
  | None -> fun _ _ phv -> by_name phv h

let compile_prim lay params prim =
  let expr e = (Expr.compile ~params lay e).Expr.run in
  match prim with
  | Assign (r, e) -> compile_assign lay params r e
  | Set_valid h -> compile_validity lay h 1 Phv.set_valid
  | Set_invalid h -> compile_validity lay h 0 Phv.set_invalid
  | Reg_read (dst, rname, idx) -> (
      let fidx = expr idx in
      match cell_or_missing lay Phv.field_cell dst with
      | Some c ->
          let width = Phv.field_width lay dst in
          fun regs args phv ->
            let reg = find_reg regs rname in
            let i = fidx phv args land Register.index_mask reg in
            phv.Phv.cells.(c) <- Register.read_int reg i ~width
      | None ->
          fun regs args phv ->
            let reg = find_reg regs rname in
            let i = fidx phv args land Register.index_mask reg in
            ignore (Register.read_int reg i ~width:1);
            raise Not_found)
  | Reg_write (rname, idx, value) ->
      let fidx = expr idx in
      let fv = expr value in
      fun regs args phv ->
        let reg = find_reg regs rname in
        let i = fidx phv args land Register.index_mask reg in
        Register.write_int reg i (fv phv args)
  | No_op -> fun _ _ _ -> ()

(* A body of one to three primitives (no-ops dropped) is one closure
   that calls them in order; another length loops over an array. Every
   compile allocates its closure — the empty body's too, through the
   loop — so a table's copy never shares one with its source. *)
let compile ~layout t : compiled =
  let prims =
    List.filter_map
      (function No_op -> None | p -> Some (compile_prim layout t.params p))
      t.body
  in
  match prims with
  | [ a ] -> a
  | [ a; b ] ->
      fun regs args phv ->
        a regs args phv;
        b regs args phv
  | [ a; b; c ] ->
      fun regs args phv ->
        a regs args phv;
        b regs args phv;
        c regs args phv
  | prims ->
      let prims = Array.of_list prims in
      fun regs args phv ->
        for i = 0 to Array.length prims - 1 do
          prims.(i) regs args phv
        done

let reg_field name = Fieldref.v "$reg" name

let reads t =
  List.fold_left
    (fun acc prim ->
      match prim with
      | Assign (_, e) -> Fieldref.Set.union acc (Expr.reads e)
      | Reg_read (_, rname, idx) ->
          Fieldref.Set.add (reg_field rname)
            (Fieldref.Set.union acc (Expr.reads idx))
      | Reg_write (rname, idx, value) ->
          Fieldref.Set.add (reg_field rname)
            (Fieldref.Set.union acc
               (Fieldref.Set.union (Expr.reads idx) (Expr.reads value)))
      | Set_valid _ | Set_invalid _ | No_op -> acc)
    Fieldref.Set.empty t.body

let writes t =
  List.fold_left
    (fun acc prim ->
      match prim with
      | Assign (r, _) -> Fieldref.Set.add r acc
      | Set_valid h | Set_invalid h ->
          Fieldref.Set.add (Fieldref.v h "$valid") acc
      | Reg_read (dst, rname, _) ->
          Fieldref.Set.add dst (Fieldref.Set.add (reg_field rname) acc)
      | Reg_write (rname, _, _) -> Fieldref.Set.add (reg_field rname) acc
      | No_op -> acc)
    Fieldref.Set.empty t.body

let registers_used t =
  List.sort_uniq String.compare
    (List.filter_map
       (function
         | Reg_read (_, r, _) | Reg_write (r, _, _) -> Some r
         | Assign _ | Set_valid _ | Set_invalid _ | No_op -> None)
       t.body)

let pp_prim ppf = function
  | Assign (r, e) -> Format.fprintf ppf "%a = %a;" Fieldref.pp r Expr.pp e
  | Set_valid h -> Format.fprintf ppf "%s.setValid();" h
  | Set_invalid h -> Format.fprintf ppf "%s.setInvalid();" h
  | Reg_read (dst, r, idx) ->
      Format.fprintf ppf "%s.read(%a, %a);" r Fieldref.pp dst Expr.pp idx
  | Reg_write (r, idx, v) ->
      Format.fprintf ppf "%s.write(%a, %a);" r Expr.pp idx Expr.pp v
  | No_op -> Format.fprintf ppf "/* no-op */"
