type binop =
  | Add | Sub | Mul
  | BAnd | BOr | BXor
  | Shl | Shr
  | Eq | Neq | Lt | Le | Gt | Ge
  | LAnd | LOr

type unop = BNot | LNot
type hash_alg = Crc32 | Crc16 | Identity

type t =
  | Const of Bitval.t
  | Field of Fieldref.t
  | Param of string
  | Bin of binop * t * t
  | Un of unop * t
  | Hash of hash_alg * int * t list
  | Valid of string

type env = { phv : Phv.t; params : (string * Bitval.t) list }

let hash_bytes alg inputs =
  (* Serialize each input value on a byte boundary, MSB first, the way a
     hash extern concatenates its field list. *)
  let total_bits =
    List.fold_left (fun acc v -> acc + Bitval.width v) 0 inputs
  in
  let nbytes = (total_bits + 7) / 8 in
  let b = Bytes.make (max nbytes 1) '\000' in
  let off = ref 0 in
  List.iter
    (fun v ->
      Netpkt.Bytes_util.set_bits b ~bit_off:!off ~width:(Bitval.width v)
        (Bitval.to_int64 v);
      off := !off + Bitval.width v)
    inputs;
  match alg with
  | Crc32 -> Netpkt.Bytes_util.crc32 b ~off:0 ~len:(Bytes.length b)
  | Crc16 -> Netpkt.Bytes_util.crc16 b ~off:0 ~len:(Bytes.length b)
  | Identity ->
      List.fold_left
        (fun acc v -> Int64.logor (Int64.shift_left acc (Bitval.width v)) (Bitval.to_int64 v))
        0L inputs

let rec eval env expr =
  match expr with
  | Const v -> v
  | Field r -> Phv.get env.phv r
  | Param name -> (
      match List.assoc_opt name env.params with
      | Some v -> v
      | None -> invalid_arg (Printf.sprintf "Expr.eval: unbound param %s" name))
  | Valid h -> Bitval.of_bool (Phv.is_valid env.phv h)
  | Un (BNot, e) -> Bitval.lognot (eval env e)
  | Un (LNot, e) -> Bitval.of_bool (not (Bitval.to_bool (eval env e)))
  | Hash (alg, out_width, inputs) ->
      let vals = List.map (eval env) inputs in
      Bitval.make ~width:out_width (hash_bytes alg vals)
  | Bin (op, a, b) -> (
      let va = eval env a in
      let vb = eval env b in
      match op with
      | Add -> Bitval.add va vb
      | Sub -> Bitval.sub va vb
      | Mul -> Bitval.mul va vb
      | BAnd -> Bitval.logand va vb
      | BOr -> Bitval.logor va vb
      | BXor -> Bitval.logxor va vb
      | Shl -> Bitval.shift_left va (Bitval.to_int vb)
      | Shr -> Bitval.shift_right va (Bitval.to_int vb)
      | Eq -> Bitval.of_bool (Bitval.equal_value va (Bitval.resize vb (Bitval.width va)))
      | Neq ->
          Bitval.of_bool
            (not (Bitval.equal_value va (Bitval.resize vb (Bitval.width va))))
      | Lt -> Bitval.of_bool (Bitval.lt va (Bitval.resize vb (Bitval.width va)))
      | Le -> Bitval.of_bool (Bitval.le va (Bitval.resize vb (Bitval.width va)))
      | Gt -> Bitval.of_bool (Bitval.lt (Bitval.resize vb (Bitval.width va)) va)
      | Ge -> Bitval.of_bool (Bitval.le (Bitval.resize vb (Bitval.width va)) va)
      | LAnd -> Bitval.of_bool (Bitval.to_bool va && Bitval.to_bool vb)
      | LOr -> Bitval.of_bool (Bitval.to_bool va || Bitval.to_bool vb))

let eval_bool env e = Bitval.to_bool (eval env e)

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*"
  | BAnd -> "&" | BOr -> "|" | BXor -> "^"
  | Shl -> "<<" | Shr -> ">>"
  | Eq -> "==" | Neq -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | LAnd -> "&&" | LOr -> "||"

let rec pp ppf = function
  | Const v -> Format.fprintf ppf "%Lu" (Bitval.to_int64 v)
  | Field r -> Fieldref.pp ppf r
  | Param p -> Format.fprintf ppf "%s" p
  | Valid h -> Format.fprintf ppf "%s.isValid()" h
  | Un (BNot, e) -> Format.fprintf ppf "~(%a)" pp e
  | Un (LNot, e) -> Format.fprintf ppf "!(%a)" pp e
  | Bin (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (binop_str op) pp b
  | Hash (alg, w, es) ->
      let name =
        match alg with Crc32 -> "crc32" | Crc16 -> "crc16" | Identity -> "identity"
      in
      Format.fprintf ppf "hash_%s<bit<%d>>(%a)" name w
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp)
        es

(* --- Static widths: a node's width is fixed by the tree and the
   declarations it reads, as in P4. Field and parameter widths come
   from the caller; an unknown field or parameter counts as 1 bit (its
   evaluation raises before the width matters). --- *)

let rec width_of ~field_width ~params = function
  | Const v -> Bitval.width v
  | Field r -> Option.value ~default:1 (field_width r)
  | Param p -> Option.value ~default:1 (List.assoc_opt p params)
  | Valid _ | Un (LNot, _) -> 1
  | Un (BNot, e) -> width_of ~field_width ~params e
  | Hash (_, w, _) -> w
  | Bin ((Add | Sub | Mul | BAnd | BOr | BXor | Shl | Shr), a, _) ->
      width_of ~field_width ~params a
  | Bin ((Eq | Neq | Lt | Le | Gt | Ge | LAnd | LOr), _, _) -> 1

let rec widest ~field_width ~params e =
  let sub =
    match e with
    | Const _ | Field _ | Param _ | Valid _ -> 0
    | Un (_, a) -> widest ~field_width ~params a
    | Bin (_, a, b) ->
        max (widest ~field_width ~params a) (widest ~field_width ~params b)
    | Hash (_, _, es) ->
        List.fold_left (fun acc a -> max acc (widest ~field_width ~params a)) 0 es
  in
  max sub (width_of ~field_width ~params e)

(* --- Compiled int form: the tree resolved once against a PHV layout.
   Every field read is a cell index, every parameter a position in the
   bound action data, every value an immediate int masked to its static
   width — nothing is allocated per evaluation. Operands are evaluated
   left to right, like [eval], so the same node raises first.

   Lowering goes by shape. A leaf stays an operand (a cell, a constant,
   an action datum) until its parent reads it: a field or validity bit
   compared with a constant, a negated validity bit and a field plus a
   constant each become one closure over one cell, and a caller that
   writes a cell ({!Action}) reads such an operand in place. Any other
   node is one closure that calls its operands' closures, with its
   operator written in place. --- *)

type compiled = { width : int; run : Phv.t -> int array -> int }

type operand =
  | Cell of int
  | Imm of int
  | Arg of int
  | Cell_add of int * int
  | Code of (Phv.t -> int array -> int)

let bool_int b = if b then 1 else 0

let closure ~width = function
  | Cell c -> fun phv _ -> phv.Phv.cells.(c)
  | Imm k -> fun _ _ -> k
  | Arg i -> fun _ args -> args.(i)
  | Cell_add (c, k) ->
      let m = Hdr.mask width in
      fun phv _ -> (phv.Phv.cells.(c) + k) land m
  | Code f -> f

let param_index params name =
  let rec go i = function
    | [] -> None
    | (p, w) :: rest -> if String.equal p name then Some (i, w) else go (i + 1) rest
  in
  go 0 params

(* The generic binary node over its operands' closures, both evaluated
   before the operator, left first. [m] masks to the left operand's
   width [wa]; comparisons resize [vb] to it, as [eval] does; logic
   reads truth values, unresized. *)
let binop op wa fa fb =
  let m = Hdr.mask wa in
  match op with
  | Add -> fun phv args -> let va = fa phv args in (va + fb phv args) land m
  | Sub -> fun phv args -> let va = fa phv args in (va - fb phv args) land m
  | Mul -> fun phv args -> let va = fa phv args in va * fb phv args land m
  | BAnd -> fun phv args -> let va = fa phv args in va land fb phv args land m
  | BOr -> fun phv args -> let va = fa phv args in (va lor fb phv args) land m
  | BXor -> fun phv args -> let va = fa phv args in (va lxor fb phv args) land m
  | Shl ->
      fun phv args ->
        let va = fa phv args in
        let n = fb phv args in
        if n >= wa then 0 else (va lsl n) land m
  | Shr ->
      fun phv args ->
        let va = fa phv args in
        let n = fb phv args in
        if n >= wa then 0 else (va lsr n) land m
  | Eq -> fun phv args -> let va = fa phv args in bool_int (va = fb phv args land m)
  | Neq -> fun phv args -> let va = fa phv args in bool_int (va <> fb phv args land m)
  | Lt -> fun phv args -> let va = fa phv args in bool_int (va < fb phv args land m)
  | Le -> fun phv args -> let va = fa phv args in bool_int (va <= fb phv args land m)
  | Gt -> fun phv args -> let va = fa phv args in bool_int (va > fb phv args land m)
  | Ge -> fun phv args -> let va = fa phv args in bool_int (va >= fb phv args land m)
  | LAnd ->
      fun phv args ->
        let va = fa phv args in
        let vb = fb phv args in
        bool_int (va <> 0 && vb <> 0)
  | LOr ->
      fun phv args ->
        let va = fa phv args in
        let vb = fb phv args in
        bool_int (va <> 0 || vb <> 0)

(* Every node's static width is checked once, as it is lowered, before
   its parent is. *)
let rec lower_node lay params e =
  let ((width, _) as node) = lower_shape lay params e in
  if width > Hdr.max_width then
    invalid_arg
      (Format.asprintf "Expr.compile: %a is bit<%d>, wider than %d" pp e width
         Hdr.max_width);
  node

and lower_shape lay params e =
  let sub = lower_node lay params in
  let code e =
    let width, op = sub e in
    (width, closure ~width op)
  in
  match e with
  | Const v -> (Bitval.width v, Imm (Int64.to_int (Bitval.to_int64 v)))
  | Field r -> (
      match Phv.field_cell lay r with
      | c -> (Phv.field_width lay r, Cell c)
      | exception Not_found -> (1, Code (fun _ _ -> raise Not_found)))
  | Param name -> (
      match param_index params name with
      | Some (i, w) -> (w, Arg i)
      | None ->
          let msg = Printf.sprintf "Expr.eval: unbound param %s" name in
          (1, Code (fun _ _ -> invalid_arg msg)))
  | Valid h -> (
      match Phv.valid_cell lay h with
      | c -> (1, Cell c)
      | exception Not_found -> (1, Imm 0))
  | Un (BNot, a) ->
      let width, f = code a in
      let m = Hdr.mask width in
      (width, Code (fun phv args -> lnot (f phv args) land m))
  | Un (LNot, a) -> (
      match sub a with
      | _, Cell c -> (1, Code (fun phv _ -> bool_int (phv.Phv.cells.(c) = 0)))
      | width, op ->
          let f = closure ~width op in
          (1, Code (fun phv args -> bool_int (f phv args = 0))))
  | Hash (alg, out_width, inputs) ->
      (out_width, Code (compile_hash alg out_width (List.map code inputs)))
  | Bin (op, a, b) -> (
      let wa, a = sub a in
      let wb, b = sub b in
      (* A cell against a constant: the constant resized once, here. *)
      let imm k = k land Hdr.mask wa in
      match (op, a, b) with
      | Eq, Cell c, Imm k ->
          let k = imm k in
          (1, Code (fun phv _ -> bool_int (phv.Phv.cells.(c) = k)))
      | Neq, Cell c, Imm k ->
          let k = imm k in
          (1, Code (fun phv _ -> bool_int (phv.Phv.cells.(c) <> k)))
      | Lt, Cell c, Imm k ->
          let k = imm k in
          (1, Code (fun phv _ -> bool_int (phv.Phv.cells.(c) < k)))
      | Le, Cell c, Imm k ->
          let k = imm k in
          (1, Code (fun phv _ -> bool_int (phv.Phv.cells.(c) <= k)))
      | Gt, Cell c, Imm k ->
          let k = imm k in
          (1, Code (fun phv _ -> bool_int (phv.Phv.cells.(c) > k)))
      | Ge, Cell c, Imm k ->
          let k = imm k in
          (1, Code (fun phv _ -> bool_int (phv.Phv.cells.(c) >= k)))
      | Add, Cell c, Imm k -> (wa, Cell_add (c, k))
      | (Add | Sub | Mul | BAnd | BOr | BXor | Shl | Shr), _, _ ->
          (wa, Code (binop op wa (closure ~width:wa a) (closure ~width:wb b)))
      | (Eq | Neq | Lt | Le | Gt | Ge | LAnd | LOr), _, _ ->
          (1, Code (binop op wa (closure ~width:wa a) (closure ~width:wb b))))

(* A hash node serializes its inputs exactly like [hash_bytes], into a
   scratch buffer sized at compile time. The buffer belongs to this
   closure, which belongs to one pipelet (or one table store) and so to
   one domain. *)
and compile_hash alg out_width inputs =
  let fs = Array.of_list (List.map snd inputs) in
  let ws = Array.of_list (List.map fst inputs) in
  let n = Array.length fs in
  let m = Hdr.mask out_width in
  match alg with
  | Identity ->
      fun phv args ->
        let acc = ref 0 in
        for i = 0 to n - 1 do
          acc := (!acc lsl ws.(i)) lor fs.(i) phv args
        done;
        !acc land m
  | Crc32 | Crc16 ->
      let total = Array.fold_left ( + ) 0 ws in
      let nbytes = max 1 ((total + 7) / 8) in
      let buf = Bytes.make nbytes '\000' in
      let crc =
        match alg with
        | Crc32 -> fun () -> Netpkt.Bytes_util.crc32_int buf ~off:0 ~len:nbytes
        | Crc16 | Identity -> fun () -> Netpkt.Bytes_util.crc16_int buf ~off:0 ~len:nbytes
      in
      fun phv args ->
        Bytes.fill buf 0 nbytes '\000';
        let off = ref 0 in
        for i = 0 to n - 1 do
          Netpkt.Bytes_util.set_bits_int buf ~bit_off:!off ~width:ws.(i) (fs.(i) phv args);
          off := !off + ws.(i)
        done;
        crc () land m

let lower ?(params = []) lay e = lower_node lay params e

let compile ?params lay e =
  let width, op = lower ?params lay e in
  { width; run = closure ~width op }

let rec reads = function
  | Const _ | Param _ -> Fieldref.Set.empty
  | Field r -> Fieldref.Set.singleton r
  | Valid h -> Fieldref.Set.singleton (Fieldref.v h "$valid")
  | Un (_, e) -> reads e
  | Bin (_, a, b) -> Fieldref.Set.union (reads a) (reads b)
  | Hash (_, _, es) ->
      List.fold_left
        (fun acc e -> Fieldref.Set.union acc (reads e))
        Fieldref.Set.empty es

(* The constructors as operators, defined last so the code above
   reads [+], [=] and the rest as the integer and boolean operators. *)

let const ~width v = Const (Bitval.of_int ~width v)
let field h f = Field (Fieldref.v h f)
let ( + ) a b = Bin (Add, a, b)
let ( - ) a b = Bin (Sub, a, b)
let ( = ) a b = Bin (Eq, a, b)
let ( <> ) a b = Bin (Neq, a, b)
let ( < ) a b = Bin (Lt, a, b)
let ( && ) a b = Bin (LAnd, a, b)
let ( || ) a b = Bin (LOr, a, b)
