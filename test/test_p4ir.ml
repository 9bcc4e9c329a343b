(* Tests for headers, PHVs, expressions, actions, tables, controls,
   dependency analysis and resource estimation. *)

open P4ir

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* The result-API install for tests: a failed install is a test bug. *)
let must_add t e =
  match Table.add_entry t e with Ok () -> () | Error m -> Alcotest.fail m

let meta = Hdr.decl "m" [ ("a", 8); ("b", 16); ("c", 32) ]
let fr h f = Fieldref.v h f
let bv w v = Bitval.of_int ~width:w v

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The layout of the table and control tests: [fresh_phv]s share it
   and [mk_table] binds to it, so lookups read key cells. *)
let lay = Phv.layout_of [ meta ]

let fresh_phv () =
  let phv = Phv.of_layout lay in
  Phv.set_valid phv "m";
  phv

(* --- Hdr / Phv --- *)

let test_decl_validation () =
  Alcotest.check_raises "duplicate fields"
    (Invalid_argument "Hdr.decl x: duplicate field a") (fun () ->
      ignore (Hdr.decl "x" [ ("a", 8); ("a", 4) ]));
  Alcotest.check_raises "bad width"
    (Invalid_argument "Hdr.decl x: field f width 65 not in 1..62") (fun () ->
      ignore (Hdr.decl "x" [ ("f", 65) ]));
  (* 63 and 64 bits would not fit a PHV cell's immediate int. *)
  Alcotest.check_raises "wider than a PHV cell"
    (Invalid_argument "Hdr.decl x: field f width 63 not in 1..62") (fun () ->
      ignore (Hdr.decl "x" [ ("f", 63) ]));
  check Alcotest.int "62 bits accepted" 62 (Hdr.total_width (Hdr.decl "x" [ ("f", 62) ]))

let test_hdr_extract_emit_roundtrip () =
  let d = Hdr.decl "h" [ ("x", 4); ("y", 12); ("z", 16) ] in
  let i = Hdr.inst d in
  let b = Bytes.of_string "\xAB\xCD\xEF\x01" in
  Hdr.extract i b ~bit_off:0;
  check Alcotest.int "x" 0xA (Bitval.to_int (Hdr.get i "x"));
  check Alcotest.int "y" 0xBCD (Bitval.to_int (Hdr.get i "y"));
  check Alcotest.int "z" 0xEF01 (Bitval.to_int (Hdr.get i "z"));
  let out = Bytes.make 4 '\000' in
  Hdr.emit i out ~bit_off:0;
  check Alcotest.bytes "emit inverts extract" b out

(* --- The wire codec against the bit loop: reads give the same cells
   and the same errors, writes leave the same buffer, all of it. --- *)

let outcome f =
  match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* Header [d] at byte [off] of a buffer holding [init]: the codec's
   whole-header and per-field reads and writes against the bit loop's,
   with [vals] (any ints: a write keeps each one's low bits) as the
   cells written. Cells start at -7, so a field one side reads and the
   other does not (before an error) shows. *)
let codec_agrees d ~off ~init ~vals =
  let n = Hdr.n_fields d in
  let b = Bytes.of_string init in
  let c1 = Array.make (n + 2) (-7) and c2 = Array.make (n + 2) (-7) in
  let read_ok =
    outcome (fun () -> Hdr.read_wire d c1 ~pos:1 b ~off)
    = outcome (fun () -> Hdr.read_fields d c2 ~pos:1 b ~bit_off:(8 * off))
    && c1 = c2
  in
  let field k = ((8 * off) + d.Hdr.foffs.(k), d.Hdr.fwidths.(k)) in
  let get_ok k =
    let bit_off, width = field k in
    outcome (fun () -> Hdr.get_wire d k b ~off)
    = outcome (fun () -> Netpkt.Bytes_util.get_bits_int b ~bit_off ~width)
  in
  let b1 = Bytes.of_string init and b2 = Bytes.of_string init in
  let write_ok =
    outcome (fun () -> Hdr.write_wire d vals ~pos:0 b1 ~off)
    = outcome (fun () -> Hdr.write_fields d vals ~pos:0 b2 ~bit_off:(8 * off))
    && Bytes.equal b1 b2
  in
  let set_ok k =
    let bit_off, width = field k in
    let b3 = Bytes.of_string init and b4 = Bytes.of_string init in
    outcome (fun () -> Hdr.set_wire d k b3 ~off vals.(k))
    = outcome (fun () -> Netpkt.Bytes_util.set_bits_int b4 ~bit_off ~width vals.(k))
    && Bytes.equal b3 b4
  in
  let ks = List.init n Fun.id in
  read_ok && write_ok && List.for_all get_ok ks && List.for_all set_ok ks
  && Bytes.to_string b = init

(* Where a header of [span] bytes sits in a buffer: anywhere, ending at
   the buffer's end, ending within its last 7 bytes, starting within
   its first 8 (a short header's windows reach before it), or out of
   range. *)
let gen_place span =
  let open QCheck.Gen in
  let* len = int_range 0 (span + 24) in
  let* off =
    frequency
      [
        (3, int_range 0 (max 0 (len - span)));
        (2, return (len - span));
        (3, map (fun k -> len - span - k) (int_range 1 7));
        (2, int_range 0 7);
        (1, int_range (-3) (len + 3));
      ]
  in
  let* init = string_size ~gen:char (return len) in
  return (off, init)

let gen_vals n =
  QCheck.Gen.(
    array_size (return n)
      (frequency [ (4, int_bound 0xFFFF); (2, int); (1, map (fun x -> -x) small_nat) ]))

let print_case (d, off, init, _) =
  Printf.sprintf "%s off=%d len=%d" (Format.asprintf "%a" Hdr.pp_decl d) off
    (String.length init)

let prop_codec_random =
  let width =
    QCheck.Gen.(
      frequency
        [
          (3, int_range 1 8);
          (2, oneofl [ 8; 16; 24; 32; 48 ]);
          (2, int_range 9 56);
          (2, int_range 57 62);
        ])
  in
  let gen =
    QCheck.Gen.(
      let* widths = list_size (int_range 1 10) width in
      let d = Hdr.decl "r" (List.mapi (fun i w -> (Printf.sprintf "f%d" i, w)) widths) in
      let* off, init = gen_place d.Hdr.span in
      let* vals = gen_vals (Hdr.n_fields d) in
      return (d, off, init, vals))
  in
  QCheck.Test.make ~name:"wire codec = bit loop (random declarations)" ~count:3000
    (QCheck.make ~print:print_case gen)
    (fun (d, off, init, vals) -> codec_agrees d ~off ~init ~vals)

let prop_codec_declared =
  let gen =
    QCheck.Gen.(
      let* d = oneofl Dejavu_core.Net_hdrs.all_decls in
      let* off, init = gen_place d.Hdr.span in
      let* vals = gen_vals (Hdr.n_fields d) in
      return (d, off, init, vals))
  in
  QCheck.Test.make ~name:"wire codec = bit loop (Net_hdrs and SFC headers)"
    ~count:2000
    (QCheck.make ~print:print_case gen)
    (fun (d, off, init, vals) -> codec_agrees d ~off ~init ~vals)

(* The places the codec compiles: in a header of 8 bytes or more every
   window lies inside it; a 4-byte header's one window ends at its last
   byte; a 62-bit field 3 bits off a byte boundary fits no window. *)
let test_codec_places () =
  let byte p = p lsr 12 in
  let ip = Dejavu_core.Net_hdrs.ipv4 in
  check Alcotest.int "ipv4 lead" 0 ip.Hdr.lead;
  Array.iter
    (fun p ->
      check Alcotest.bool "ipv4 window inside" true (p >= 0 && byte p + 8 <= ip.Hdr.span))
    ip.Hdr.places;
  let vlan = Dejavu_core.Net_hdrs.vlan in
  check Alcotest.int "vlan lead" 4 vlan.Hdr.lead;
  Array.iter (fun p -> check Alcotest.int "vlan window" 0 (byte p)) vlan.Hdr.places;
  let wide = Hdr.decl "w" [ ("a", 3); ("b", 62); ("c", 7) ] in
  check Alcotest.(array int) "62 bits at bit 3" [| 0; -1; 0 |]
    (Array.map (fun p -> if p < 0 then -1 else 0) wide.Hdr.places)

(* Both loops index the cells unchecked after one check per header. *)
let test_codec_cells_range () =
  let d = Dejavu_core.Net_hdrs.tcp in
  let b = Bytes.make 40 '\001' in
  let err = Invalid_argument "Hdr: cells [3,13) of tcp exceed 12" in
  let short = Array.make 12 0 in
  Alcotest.check_raises "read_wire" err (fun () -> Hdr.read_wire d short ~pos:3 b ~off:0);
  Alcotest.check_raises "read_fields" err (fun () ->
      Hdr.read_fields d short ~pos:3 b ~bit_off:0);
  Alcotest.check_raises "write_wire" err (fun () -> Hdr.write_wire d short ~pos:3 b ~off:0);
  Alcotest.check_raises "write_fields" err (fun () ->
      Hdr.write_fields d short ~pos:3 b ~bit_off:0);
  Alcotest.check_raises "negative position"
    (Invalid_argument "Hdr: cells [-1,9) of tcp exceed 12") (fun () ->
      Hdr.read_wire d short ~pos:(-1) b ~off:0);
  check Alcotest.bool "buffer untouched" true (Bytes.equal b (Bytes.make 40 '\001'))

let test_hdr_set_resizes () =
  let d = Hdr.decl "h" [ ("x", 4) ] in
  let i = Hdr.inst d in
  Hdr.set i "x" (bv 32 0xFFF);
  check Alcotest.int "truncated to field width" 0xF (Bitval.to_int (Hdr.get i "x"))

let test_phv_validity () =
  let phv = Phv.create [ meta ] in
  check Alcotest.bool "starts invalid" false (Phv.is_valid phv "m");
  Phv.set_valid phv "m";
  check Alcotest.bool "set_valid" true (Phv.is_valid phv "m");
  check Alcotest.bool "absent header invalid" false (Phv.is_valid phv "nope")

let test_phv_copy_isolated () =
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 7;
  let copy = Phv.copy phv in
  Phv.set_int copy (fr "m" "a") 9;
  check Alcotest.int "original unchanged" 7 (Phv.get_int phv (fr "m" "a"));
  check Alcotest.int "copy changed" 9 (Phv.get_int copy (fr "m" "a"))

let test_phv_conflicting_decl () =
  let phv = Phv.create [ meta ] in
  Alcotest.check_raises "conflicting decl"
    (Invalid_argument "Phv.add_decl: conflicting declaration for m") (fun () ->
      Phv.add_decl phv (Hdr.decl "m" [ ("other", 8) ]))

(* --- Expr --- *)

let eval phv e = Expr.eval { Expr.phv; params = [] } e

let test_expr_arith () =
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 200;
  let e = Expr.(Field (fr "m" "a") + const ~width:8 100) in
  check Alcotest.int "8-bit wraparound" 44 (Bitval.to_int (eval phv e))

let test_expr_comparisons () =
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "b") 1000;
  let t e = Bitval.to_bool (eval phv e) in
  check Alcotest.bool "eq" true Expr.(t (Field (fr "m" "b") = const ~width:16 1000));
  check Alcotest.bool "lt" true Expr.(t (Field (fr "m" "b") < const ~width:16 2000));
  check Alcotest.bool "land" true
    Expr.(
      t
        (Bin
           ( LAnd,
             Field (fr "m" "b") = const ~width:16 1000,
             Un (LNot, Field (fr "m" "b") < const ~width:16 5) )))

let test_expr_valid_bit () =
  let phv = Phv.create [ meta ] in
  check Alcotest.bool "invalid header" false
    (Bitval.to_bool (eval phv (Expr.Valid "m")));
  Phv.set_valid phv "m";
  check Alcotest.bool "valid header" true
    (Bitval.to_bool (eval phv (Expr.Valid "m")))

let test_expr_hash_matches_crc32 () =
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "c") 0x31323334;
  let e = Expr.Hash (Expr.Crc32, 32, [ Expr.Field (fr "m" "c") ]) in
  let expected = Netpkt.Bytes_util.crc32 (Bytes.of_string "1234") ~off:0 ~len:4 in
  check Alcotest.int64 "hash = crc32 of serialized fields" expected
    (Bitval.to_int64 (eval phv e))

let test_expr_unbound_param () =
  let phv = fresh_phv () in
  Alcotest.check_raises "unbound param"
    (Invalid_argument "Expr.eval: unbound param nope") (fun () ->
      ignore (eval phv (Expr.Param "nope")))

let test_expr_reads () =
  let e =
    Expr.(Bin (Add, Field (fr "m" "a"), Bin (Mul, Field (fr "m" "b"), Valid "m")))
  in
  let reads = Expr.reads e in
  check Alcotest.int "three reads" 3 (Fieldref.Set.cardinal reads);
  check Alcotest.bool "validity pseudo-field" true
    (Fieldref.Set.mem (fr "m" "$valid") reads)

(* Differential property for the int path: an expression compiled
   against a PHV layout computes what [Expr.eval] computes — same value,
   same width, same exception — on random trees over fields of random
   widths (1..62). The trees mix wrapping arithmetic, shifts by amounts
   at or past the operand width, comparisons across widths, hashes,
   validity tests and bound or unbound parameters; some leaves read a
   field or header the layout lacks. About a third of the nodes take
   the shapes the compiler lowers to one closure over one cell: a field
   or validity bit against a constant under every operator, a negated
   validity bit, a field plus a constant. Their constants are sometimes
   63 or 64 bits wide, which the compiler refuses up front, and often
   carry bits above their field's width over low bits that equal a
   small field value, so a comparison that does not resize the
   constant shows. *)
let gen_expr ~nfields ~nparams =
  let open QCheck.Gen in
  let value = oneof [ int_bound 70; int ] in
  let field =
    map (fun i -> Expr.Field (fr "h" (Printf.sprintf "f%d" i))) (int_bound (nfields - 1))
  in
  let missing = oneofl [ Expr.Field (fr "h" "missing"); Expr.Field (fr "nope" "f0") ] in
  let valid = oneofl [ Expr.Valid "h"; Expr.Valid "nope" ] in
  let leaf =
    frequency
      [
        ( 3,
          map2
            (fun w v -> Expr.Const (Bitval.make ~width:w (Int64.of_int v)))
            (int_range 1 62) value );
        (4, field);
        (1, missing);
        (2, map (fun i -> Expr.Param (Printf.sprintf "p%d" i)) (int_bound nparams));
        (1, valid);
      ]
  in
  let binop =
    oneofl
      Expr.[ Add; Sub; Mul; BAnd; BOr; BXor; Shl; Shr; Eq; Neq; Lt; Le; Gt; Ge; LAnd; LOr ]
  in
  (* A constant for a lowered shape: small, a small value under a high
     bit (62 bits wide, so the bit survives), any value, or 63–64 bits. *)
  let shape_const =
    frequency
      [
        (2, map (fun v -> Expr.Const (Bitval.of_int ~width:8 v)) (int_bound 3));
        ( 3,
          map2
            (fun lo hi -> Expr.Const (Bitval.of_int ~width:62 (lo lor (1 lsl hi))))
            (int_bound 1) (int_range 30 61) );
        ( 2,
          map2
            (fun w v -> Expr.Const (Bitval.make ~width:w (Int64.of_int v)))
            (int_range 1 62) value );
        ( 1,
          map2
            (fun w v -> Expr.Const (Bitval.make ~width:w (Int64.of_int v)))
            (int_range 63 64) int );
      ]
  in
  let shaped =
    frequency
      [
        ( 6,
          map3
            (fun op a k -> Expr.Bin (op, a, k))
            (frequency
               [ (2, oneofl Expr.[ Eq; Neq ]); (2, oneofl Expr.[ Lt; Le; Gt; Ge ]); (1, binop) ])
            (frequency [ (6, field); (1, missing); (2, valid) ])
            shape_const );
        (2, map (fun h -> Expr.Un (Expr.LNot, Expr.Valid h)) (oneofl [ "h"; "nope" ]));
        ( 2,
          map2
            (fun a k -> Expr.Bin (Expr.Add, a, k))
            (frequency [ (6, field); (1, missing) ])
            shape_const );
      ]
  in
  sized_size (int_bound 12)
  @@ fix (fun self n ->
         if n = 0 then frequency [ (1, leaf); (1, shaped) ]
         else
           frequency
             [
               (1, leaf);
               (3, shaped);
               (5, map3 (fun op a b -> Expr.Bin (op, a, b)) binop (self (n / 2)) (self (n / 2)));
               (1, map2 (fun u a -> Expr.Un (u, a)) (oneofl Expr.[ BNot; LNot ]) (self (n - 1)));
               ( 1,
                 map3
                   (fun alg w es -> Expr.Hash (alg, w, es))
                   (oneofl Expr.[ Crc32; Crc16; Identity ])
                   (int_range 1 62)
                   (list_size (int_range 1 3) (self (n / 3))) );
             ])

(* A tree with a node wider than 62 bits is refused when it is
   compiled, with [Invalid_argument]; any other compiles and agrees with
   [eval]. Field values are often 0 or 1, the low bits of the lowered
   shapes' constants. *)
let prop_compiled_expr_matches_eval =
  let case =
    QCheck.Gen.(
      let* widths = list_size (int_range 1 4) (int_range 1 62) in
      let* pwidths = list_size (int_range 0 2) (int_range 1 62) in
      let* fvals = list_repeat (List.length widths) (oneof [ int_bound 1; int ]) in
      let* pvals = list_repeat (List.length pwidths) int in
      let* valid = bool in
      let* e = gen_expr ~nfields:(List.length widths) ~nparams:(List.length pwidths) in
      return (widths, pwidths, fvals, pvals, valid, e))
  in
  QCheck.Test.make ~name:"compiled int expr = eval" ~count:1000
    (QCheck.make ~print:(fun (_, _, _, _, _, e) -> Format.asprintf "%a" Expr.pp e) case)
    (fun (widths, pwidths, fvals, pvals, valid, e) ->
      let d = Hdr.decl "h" (List.mapi (fun i w -> (Printf.sprintf "f%d" i, w)) widths) in
      let lay = Phv.layout_of [ d ] in
      let phv = Phv.of_layout lay in
      if valid then Phv.set_valid phv "h";
      List.iteri (fun i v -> Phv.set_int phv (fr "h" (Printf.sprintf "f%d" i)) v) fvals;
      let params = List.mapi (fun i w -> (Printf.sprintf "p%d" i, w)) pwidths in
      let bparams = List.map2 (fun (p, w) v -> (p, Bitval.of_int ~width:w v)) params pvals in
      let args = Array.of_list (List.map (fun (_, v) -> Int64.to_int (Bitval.to_int64 v)) bparams) in
      let outcome f =
        match f () with
        | r -> Ok r
        | exception Not_found -> Error "Not_found"
        | exception Invalid_argument m -> Error m
      in
      let field_width r =
        if r.Fieldref.hdr <> "h" then None
        else
          List.find_map
            (fun (i, w) -> if r.Fieldref.field = Printf.sprintf "f%d" i then Some w else None)
            (List.mapi (fun i w -> (i, w)) widths)
      in
      if Expr.widest ~field_width ~params e > Hdr.max_width then
        match Expr.compile ~params lay e with
        | _ -> false
        | exception Invalid_argument _ -> true
      else
        let compiled =
          outcome (fun () ->
              let c = Expr.compile ~params lay e in
              let v = c.Expr.run phv args in
              (c.Expr.width, v))
        in
        let reference =
          outcome (fun () ->
              let v = Expr.eval { Expr.phv; params = bparams } e in
              (Bitval.width v, Int64.to_int (Bitval.to_int64 v)))
        in
        compiled = reference)

(* Static widths are what validation gates: a 64-bit constant is too
   wide for the int path, however it is used. *)
let test_expr_widest () =
  let field_width r = if r = fr "m" "c" then Some 32 else None in
  let e = Expr.(Bin (Eq, Field (fr "m" "c"), const ~width:62 1)) in
  check Alcotest.int "comparison result is 1 bit, operands up to 62" 62
    (Expr.widest ~field_width ~params:[] e);
  check Alcotest.int "param width" 48
    (Expr.widest ~field_width ~params:[ ("p", 48) ] Expr.(Field (fr "m" "c") + Param "p"));
  check Alcotest.int "64-bit constant" 64
    (Expr.widest ~field_width ~params:[]
       Expr.(Bin (Lt, Field (fr "m" "c"), Const (Bitval.make ~width:64 1L))));
  Alcotest.check_raises "compile rejects bit<64>"
    (Invalid_argument "Expr.compile: 1 is bit<64>, wider than 62") (fun () ->
      ignore (Expr.compile (Phv.layout_of []) (Expr.Const (Bitval.make ~width:64 1L))))

(* Validation keeps 63- and 64-bit arithmetic out of programs: the
   64-bit Bitval reference and the int fast path would disagree there. *)
let test_validate_rejects_wide_expressions () =
  let parser =
    { Parser_graph.name = "p"; decls = [ meta ]; start = Parser_graph.Accept; states = [] }
  in
  let program ?(tables = []) body =
    Program.make ~name:"w" ~parser ~tables
      ~control:(Control.make "c" body) ~deparse_order:[ "m" ] ()
  in
  let wide = Expr.Const (Bitval.make ~width:64 1L) in
  let rejected p =
    match Program.validate p with
    | Error m -> contains m "wider than 62"
    | Ok () -> false
  in
  check Alcotest.bool "62-bit gateway accepted" true
    (Program.validate
       (program [ Control.If (Expr.(Field (fr "m" "c") < const ~width:62 5), [], []) ])
    = Ok ());
  check Alcotest.bool "64-bit gateway operand rejected" true
    (rejected (program [ Control.If (Expr.(Bin (Lt, Field (fr "m" "c"), wide)), [], []) ]));
  check Alcotest.bool "64-bit inline assignment rejected" true
    (rejected (program [ Control.Run [ Action.Assign (fr "m" "a", wide) ] ]));
  let t =
    Table.make ~name:"t" ~keys:[]
      ~actions:
        [ Action.make "set" ~params:[ ("v", 64) ] [ Action.Assign (fr "m" "c", Expr.Param "v") ] ]
      ~default:("set", [ Bitval.zero 64 ]) ()
  in
  check Alcotest.bool "64-bit action parameter read rejected" true
    (rejected (program ~tables:[ t ] [ Control.Apply "t" ]))

(* What the compiled path would have to resolve by name per packet is
   refused at load instead: a table key that is not a parsed field at
   its declared width, a select on an undeclared field, a deparse order
   naming an undeclared header. The error names the table, parser state
   or header at fault, and a chip of such programs fails to load rather
   than raising. *)
let test_validate_refuses_unresolved_names () =
  let key field width = { Table.field; kind = Table.Exact; width } in
  let program ?(k = key (fr "m" "a") 8) ?(on = [ fr "m" "a" ]) ?(order = [ "m" ]) () =
    let parser =
      {
        Parser_graph.name = "p";
        decls = [ meta ];
        start = Parser_graph.Goto "m@0";
        states =
          [
            {
              Parser_graph.id = "m@0";
              header = "m";
              offset = 0;
              select = Some { Parser_graph.on; cases = []; default = Parser_graph.Accept };
            };
          ];
      }
    in
    let t =
      Table.make ~name:"t" ~keys:[ k ] ~actions:[ Action.no_op ] ~default:("NoAction", []) ()
    in
    Program.make ~name:"r" ~parser ~tables:[ t ]
      ~control:(Control.make "c" [ Control.Apply "t" ])
      ~deparse_order:order ()
  in
  let refused what expect = function
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error m -> if not (contains m expect) then Alcotest.failf "%s: %S names no %S" what m expect
  in
  check Alcotest.bool "resolvable program accepted" true (Program.validate (program ()) = Ok ());
  let validate what expect p = refused what expect (Program.validate p) in
  validate "key on an undeclared header" "table t" (program ~k:(key (fr "nope" "a") 8) ());
  validate "key on an undeclared field" "table t" (program ~k:(key (fr "m" "zz") 8) ());
  validate "key wider than its field" "table t" (program ~k:(key (fr "m" "a") 16) ());
  validate "select on an undeclared field" "state m@0" (program ~on:[ fr "m" "zz" ] ());
  validate "deparse of an undeclared header" "ghost" (program ~order:[ "m"; "ghost" ] ());
  let bad = program ~k:(key (fr "m" "a") 16) () in
  let spec = Asic.Spec.wedge_100b in
  refused "chip with a mis-sized key" "table t"
    (Result.map ignore
       (Asic.Chip.load
          {
            Asic.Chip.spec;
            ingress_programs = [| bad; bad |];
            egress_programs = [| bad; bad |];
            ports = Asic.Port.make spec;
            mirror_port = None;
          }))

(* --- Action --- *)

let test_action_params () =
  let a =
    Action.make "set_a" ~params:[ ("v", 8) ]
      [ Action.Assign (fr "m" "a", Expr.Param "v") ]
  in
  let phv = fresh_phv () in
  Action.run a ~args:[ bv 8 42 ] phv;
  check Alcotest.int "param applied" 42 (Phv.get_int phv (fr "m" "a"));
  Alcotest.check_raises "arity checked"
    (Invalid_argument "Action.run set_a: expected 1 args, got 0") (fun () ->
      Action.run a ~args:[] phv)

let test_action_read_write_sets () =
  let a =
    Action.make "mix"
      [
        Action.Assign (fr "m" "a", Expr.Field (fr "m" "b"));
        Action.Set_invalid "m";
      ]
  in
  check Alcotest.bool "reads b" true (Fieldref.Set.mem (fr "m" "b") (Action.reads a));
  check Alcotest.bool "writes a" true (Fieldref.Set.mem (fr "m" "a") (Action.writes a));
  check Alcotest.bool "writes validity" true
    (Fieldref.Set.mem (fr "m" "$valid") (Action.writes a))

(* --- Table --- *)

let mk_table ?(keys = [ { Table.field = fr "m" "a"; kind = Table.Exact; width = 8 } ])
    ?(max_size = 16) () =
  let set_b =
    Action.make "set_b" ~params:[ ("v", 16) ]
      [ Action.Assign (fr "m" "b", Expr.Param "v") ]
  in
  let t =
    Table.make ~name:"t" ~keys ~actions:[ set_b; Action.no_op ] ~default:("NoAction", [])
      ~max_size ()
  in
  Table.bind t lay;
  t

let test_table_exact_hit_miss () =
  let t = mk_table () in
  must_add t
    { Table.priority = 0; patterns = [ Table.M_exact (bv 8 5) ];
      action = "set_b"; args = [ bv 16 77 ] };
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 5;
  let action, hit = Table.apply t phv in
  check Alcotest.string "hit action" "set_b" action;
  check Alcotest.bool "hit" true hit;
  check Alcotest.int "action effect" 77 (Phv.get_int phv (fr "m" "b"));
  Phv.set_int phv (fr "m" "a") 6;
  let action, hit = Table.apply t phv in
  check Alcotest.string "miss action" "NoAction" action;
  check Alcotest.bool "miss" false hit

let test_table_priority () =
  let t =
    mk_table ~keys:[ { Table.field = fr "m" "a"; kind = Table.Ternary; width = 8 } ] ()
  in
  must_add t
    { Table.priority = 1; patterns = [ Table.M_any ]; action = "set_b"; args = [ bv 16 1 ] };
  must_add t
    {
      Table.priority = 5;
      patterns = [ Table.M_ternary { value = bv 8 0xF0; mask = bv 8 0xF0 } ];
      action = "set_b";
      args = [ bv 16 2 ];
    };
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 0xF3;
  ignore (Table.apply t phv);
  check Alcotest.int "high priority wins" 2 (Phv.get_int phv (fr "m" "b"));
  Phv.set_int phv (fr "m" "a") 0x03;
  ignore (Table.apply t phv);
  check Alcotest.int "fallback entry" 1 (Phv.get_int phv (fr "m" "b"))

let test_table_lpm_longest_prefix () =
  let t =
    mk_table ~keys:[ { Table.field = fr "m" "c"; kind = Table.Lpm; width = 32 } ] ()
  in
  must_add t
    {
      Table.priority = 0;
      patterns = [ Table.M_lpm { value = bv 32 0x0A000000; prefix_len = 8 } ];
      action = "set_b";
      args = [ bv 16 8 ];
    };
  must_add t
    {
      Table.priority = 0;
      patterns = [ Table.M_lpm { value = bv 32 0x0A010000; prefix_len = 16 } ];
      action = "set_b";
      args = [ bv 16 16 ];
    };
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "c") 0x0A0102FF;
  ignore (Table.apply t phv);
  check Alcotest.int "longest prefix wins" 16 (Phv.get_int phv (fr "m" "b"));
  Phv.set_int phv (fr "m" "c") 0x0AFF0000;
  ignore (Table.apply t phv);
  check Alcotest.int "short prefix fallback" 8 (Phv.get_int phv (fr "m" "b"))

let test_table_range () =
  let t =
    mk_table ~keys:[ { Table.field = fr "m" "b"; kind = Table.Range; width = 16 } ] ()
  in
  must_add t
    {
      Table.priority = 0;
      patterns = [ Table.M_range { lo = bv 16 100; hi = bv 16 200 } ];
      action = "set_b";
      args = [ bv 16 1 ];
    };
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "b") 150;
  check Alcotest.bool "in range" true (snd (Table.apply t phv));
  Phv.set_int phv (fr "m" "b") 201;
  check Alcotest.bool "out of range" false (snd (Table.apply t phv))

let test_table_capacity () =
  let t = mk_table ~max_size:1 () in
  must_add t
    { Table.priority = 0; patterns = [ Table.M_exact (bv 8 1) ];
      action = "set_b"; args = [ bv 16 1 ] };
  check Alcotest.bool "over capacity rejected" true
    (Result.is_error
       (Table.add_entry t
          { Table.priority = 0; patterns = [ Table.M_exact (bv 8 2) ];
            action = "set_b"; args = [ bv 16 1 ] }))

let test_table_entry_validation () =
  let t = mk_table () in
  check Alcotest.bool "wrong arity rejected" true
    (Result.is_error
       (Table.add_entry t
          { Table.priority = 0; patterns = [ Table.M_exact (bv 8 1) ];
            action = "set_b"; args = [] }));
  check Alcotest.bool "unknown action rejected" true
    (Result.is_error
       (Table.add_entry t
          { Table.priority = 0; patterns = [ Table.M_exact (bv 8 1) ];
            action = "nope"; args = [] }));
  check Alcotest.bool "pattern kind mismatch rejected" true
    (Result.is_error
       (Table.add_entry t
          { Table.priority = 0;
            patterns = [ Table.M_lpm { value = bv 8 1; prefix_len = 4 } ];
            action = "set_b"; args = [ bv 16 1 ] }))

let test_keyless_table_runs_default () =
  let t = mk_table ~keys:[] () in
  let phv = fresh_phv () in
  let action, hit = Table.apply t phv in
  check Alcotest.string "default runs" "NoAction" action;
  check Alcotest.bool "counts as miss" false hit

(* Differential property: table lookup equals a naive linear-scan model. *)
let prop_ternary_lookup_model =
  QCheck.Test.make ~name:"ternary lookup = linear model" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_bound 8) (triple small_nat small_nat small_nat))
        small_nat)
    (fun (raw_entries, probe) ->
      let t =
        mk_table
          ~keys:[ { Table.field = fr "m" "a"; kind = Table.Ternary; width = 8 } ]
          ~max_size:64 ()
      in
      let entries =
        List.map (fun (v, m, p) -> (v land 0xff, m land 0xff, p land 7)) raw_entries
      in
      List.iter
        (fun (v, m, p) ->
          must_add t
            {
              Table.priority = p;
              patterns = [ Table.M_ternary { value = bv 8 v; mask = bv 8 m } ];
              action = "NoAction";
              args = [];
            })
        entries;
      let probe = probe land 0xff in
      let phv = fresh_phv () in
      Phv.set_int phv (fr "m" "a") probe;
      let model =
        List.fold_left
          (fun acc (v, m, p) ->
            if probe land m = v land m then
              match acc with Some bp when bp >= p -> acc | _ -> Some p
            else acc)
          None entries
      in
      match (Table.lookup t phv, model) with
      | `Miss, None -> true
      | `Hit e, Some p -> e.Table.priority = p
      | `Hit _, None | `Miss, Some _ -> false)

(* Differential property: the staged index (single-key exact hash,
   multi-key exact hash, LPM prefix-length buckets, precompiled linear
   remainder) must agree with the untouched linear-scan reference on
   every table shape — same hit entry (physically the same record), so
   priority, LPM longest-prefix and insertion-order tie-breaks all
   match. *)
let lookup_key_configs =
  [|
    [ { Table.field = fr "m" "a"; kind = Table.Exact; width = 8 } ];
    [
      { Table.field = fr "m" "a"; kind = Table.Exact; width = 8 };
      { Table.field = fr "m" "b"; kind = Table.Exact; width = 16 };
    ];
    [ { Table.field = fr "m" "c"; kind = Table.Lpm; width = 32 } ];
    [ { Table.field = fr "m" "a"; kind = Table.Ternary; width = 8 } ];
    [
      { Table.field = fr "m" "b"; kind = Table.Lpm; width = 16 };
      { Table.field = fr "m" "a"; kind = Table.Ternary; width = 8 };
    ];
    [ { Table.field = fr "m" "b"; kind = Table.Range; width = 16 } ];
  |]

(* With [wide], one exact value in four is wider than 62 bits: each of
   those lowers to the index key -1 ([Hdr.cell_of_int64]), so the few
   drawn share one bucket, at widths 63 and 64 alike. *)
let lookup_pattern_for ?(wide = false) (k : Table.key) ~v ~m =
  let w = k.Table.width in
  let maxv = (1 lsl w) - 1 in
  match k.Table.kind with
  | Table.Exact when wide && m land 3 = 0 ->
      Table.M_exact
        (Bitval.make
           ~width:(63 + ((m lsr 2) land 1))
           (Int64.logor 0x4000_0000_0000_0000L (Int64.of_int (v land 3))))
  | Table.Exact -> Table.M_exact (bv w (v land maxv))
  | Table.Lpm ->
      let plen = m mod (w + 1) in
      let pmask = if plen = 0 then 0 else ((1 lsl plen) - 1) lsl (w - plen) in
      Table.M_lpm { value = bv w (v land pmask); prefix_len = plen }
  | Table.Ternary ->
      if m mod 5 = 0 then Table.M_any
      else Table.M_ternary { value = bv w (v land maxv); mask = bv w (m land maxv) }
  | Table.Range ->
      let lo = v land maxv in
      Table.M_range { lo = bv w lo; hi = bv w (min maxv (lo + (m land 0xff))) }

(* A second layout with [m] at other cells. Probing on it and on [lay]
   by turns makes the table rebind each time the layout changes. *)
let pad = Hdr.decl "pad" [ ("x", 5) ]
let lay2 = Phv.layout_of [ pad; meta ]

let prop_indexed_lookup_matches_reference =
  QCheck.Test.make ~name:"indexed lookup = reference scan" ~count:500
    QCheck.(
      quad (int_bound 5)
        (list_of_size Gen.(int_bound 24)
           (quad small_nat small_nat small_nat (int_bound 0xffffff)))
        (triple small_nat small_nat small_nat)
        (list_of_size Gen.(int_range 1 4) bool))
    (fun (cfg, raw_entries, (pa, pb, pc), on_lay2) ->
      let keys = lookup_key_configs.(cfg) in
      let t =
        Table.make ~name:"t" ~keys ~actions:[ Action.no_op ]
          ~default:("NoAction", []) ~max_size:64 ()
      in
      Table.bind t lay;
      List.iter
        (fun (p, v1, v2, m) ->
          let patterns =
            List.mapi
              (fun i k ->
                lookup_pattern_for k
                  ~v:(if i = 0 then v1 else v2)
                  ~m:(m lsr (i * 7)))
              keys
          in
          must_add t
            { Table.priority = p land 3; patterns; action = "NoAction"; args = [] })
        raw_entries;
      List.for_all
        (fun second ->
          let phv = Phv.of_layout (if second then lay2 else lay) in
          Phv.set_valid phv "m";
          Phv.set_int phv (fr "m" "a") (pa land 0xff);
          Phv.set_int phv (fr "m" "b") (pb land 0xffff);
          Phv.set_int phv (fr "m" "c") pc;
          match (Table.lookup t phv, Table.lookup_reference t phv) with
          | `Miss, `Miss -> true
          | `Hit e1, `Hit e2 -> e1 == e2
          | `Hit _, `Miss | `Miss, `Hit _ -> false)
        on_lay2)

(* --- del_entry / mod_entry --- *)

let test_table_del_entry () =
  let t = mk_table () in
  let e v arg =
    { Table.priority = 0; patterns = [ Table.M_exact (bv 8 v) ];
      action = "set_b"; args = [ bv 16 arg ] }
  in
  must_add t (e 1 10);
  must_add t (e 2 20);
  let epoch0 = Table.epoch t in
  (* Deletion names the entry by match key; action/args are ignored. *)
  check Alcotest.bool "del by key" true (Result.is_ok (Table.del_entry t (e 1 99)));
  check Alcotest.int "one left" 1 (Table.size t);
  check Alcotest.bool "epoch bumped" true (Table.epoch t > epoch0);
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 1;
  check Alcotest.bool "deleted key misses" false (snd (Table.apply t phv));
  Phv.set_int phv (fr "m" "a") 2;
  check Alcotest.bool "survivor still hits" true (snd (Table.apply t phv));
  check Alcotest.bool "missing key errors" true
    (Result.is_error (Table.del_entry t (e 1 0)))

let test_table_mod_entry () =
  let t = mk_table () in
  let e arg =
    { Table.priority = 0; patterns = [ Table.M_exact (bv 8 7) ];
      action = "set_b"; args = [ bv 16 arg ] }
  in
  must_add t (e 11);
  Table.set_stats_enabled t true;
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 7;
  ignore (Table.apply t phv);
  check Alcotest.int "pre-mod action ran" 11 (Phv.get_int phv (fr "m" "b"));
  check Alcotest.bool "mod rebinds" true (Result.is_ok (Table.mod_entry t (e 22)));
  ignore (Table.apply t phv);
  check Alcotest.int "post-mod action ran" 22 (Phv.get_int phv (fr "m" "b"));
  (* The entry kept its identity: same size, hit tally carried over. *)
  check Alcotest.int "size unchanged" 1 (Table.size t);
  (match Table.entry_hits t with
  | [ (entry, hits) ] ->
      check Alcotest.int "hits preserved across mod" 2 hits;
      check Alcotest.int "new args stored" 22
        (Bitval.to_int (List.hd entry.Table.args))
  | _ -> Alcotest.fail "expected one entry");
  check Alcotest.bool "unknown action rejected" true
    (Result.is_error
       (Table.mod_entry t
          { (e 0) with Table.action = "nope"; args = [] }));
  check Alcotest.bool "missing key rejected" true
    (Result.is_error
       (Table.mod_entry t
          { (e 0) with Table.patterns = [ Table.M_exact (bv 8 9) ] }))

let test_table_mod_keeps_tiebreak () =
  (* Two same-priority ternary entries: the first installed wins the
     tie. A mod of the first must not surrender its seniority. *)
  let t =
    mk_table
      ~keys:[ { Table.field = fr "m" "a"; kind = Table.Ternary; width = 8 } ]
      ()
  in
  let entry v m arg =
    { Table.priority = 1;
      patterns = [ Table.M_ternary { value = bv 8 v; mask = bv 8 m } ];
      action = "set_b"; args = [ bv 16 arg ] }
  in
  (* Distinct keys, both matching probe 0xF5; equal priority, so the
     first-installed entry wins. *)
  must_add t (entry 0x05 0x0F 1);
  must_add t (entry 0xF0 0xF0 2);
  check Alcotest.bool "mod the senior entry" true
    (Result.is_ok (Table.mod_entry t (entry 0x05 0x0F 3)));
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 0xF5;
  ignore (Table.apply t phv);
  check Alcotest.int "senior entry still wins the tie" 3
    (Phv.get_int phv (fr "m" "b"))

let test_stats_merge_after_churn () =
  (* The sharding telemetry fold: per-entry hits merge by sequence
     number from a replica. Entries deleted (or cleared) on the primary
     while the replica ran must drop their tallies instead of
     misattributing them, and post-clear entries must never reuse a
     dead seq. *)
  let t = mk_table () in
  let e v arg =
    { Table.priority = 0; patterns = [ Table.M_exact (bv 8 v) ];
      action = "set_b"; args = [ bv 16 arg ] }
  in
  must_add t (e 1 10);
  must_add t (e 2 20);
  Table.set_stats_enabled t true;
  let replica = Table.copy t in
  Table.set_stats_enabled replica true;
  (* Primary churns while the replica serves traffic. *)
  check Alcotest.bool "del on primary" true (Result.is_ok (Table.del_entry t (e 1 0)));
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 1;
  ignore (Table.apply replica phv);
  Phv.set_int phv (fr "m" "a") 2;
  ignore (Table.apply replica phv);
  Table.merge_stats_from t ~src:replica;
  (match Table.entry_hits t with
  | [ (entry, hits) ] ->
      check Alcotest.int "survivor's tally merged" 1 hits;
      check Alcotest.int "and it is the survivor" 2
        (Bitval.to_int (match entry.Table.patterns with
                        | [ Table.M_exact v ] -> v
                        | _ -> Alcotest.fail "unexpected pattern"))
  | l -> Alcotest.fail (Printf.sprintf "expected 1 entry, got %d" (List.length l)));
  (* Clear, refill: fresh seqs, so a second merge from the stale
     replica pairs nothing. *)
  Table.clear t;
  must_add t (e 3 30);
  Table.merge_stats_from t ~src:replica;
  match Table.entry_hits t with
  | [ (_, hits) ] -> check Alcotest.int "no cross-generation pairing" 0 hits
  | _ -> Alcotest.fail "expected 1 entry"

(* A copy keeps its source's hit slots, and a delete frees one for the
   next add: B, added on the replica after A's delete there, takes A's
   slot under a new seq. The merge pairs slots only where the seqs
   agree, so B's hits must not land on A's tally. *)
let test_stats_merge_reused_slot () =
  let t = mk_table () in
  let e v arg =
    { Table.priority = 0; patterns = [ Table.M_exact (bv 8 v) ];
      action = "set_b"; args = [ bv 16 arg ] }
  in
  must_add t (e 1 10);
  must_add t (e 2 20);
  Table.set_stats_enabled t true;
  let replica = Table.copy t in
  Table.set_stats_enabled replica true;
  check Alcotest.bool "del A on the replica" true
    (Result.is_ok (Table.del_entry replica (e 1 0)));
  must_add replica (e 3 30);
  let phv = fresh_phv () in
  List.iter
    (fun k ->
      Phv.set_int phv (fr "m" "a") k;
      check Alcotest.bool "replica hit" true (snd (Table.apply replica phv)))
    [ 3; 3; 2 ];
  Table.merge_stats_from t ~src:replica;
  let key (en : Table.entry) =
    match en.Table.patterns with [ Table.M_exact v ] -> Bitval.to_int v | _ -> -1
  in
  check
    Alcotest.(list (pair int int))
    "A keeps its tally, the shared entry takes the replica's" [ (1, 0); (2, 1) ]
    (List.map (fun (en, n) -> (key en, n)) (Table.entry_hits t))

(* Exact values wider than 62 bits all lower to the index key -1
   ([Hdr.cell_of_int64]), so two of them share a bucket whose key
   does not tell them apart: a del or mod of one compares patterns and
   touches that one only. *)
let test_wide_exact_values_share_a_bucket () =
  let t = mk_table () in
  let e v arg =
    { Table.priority = 0; patterns = [ Table.M_exact v ]; action = "set_b";
      args = [ bv 16 arg ] }
  in
  let a = Bitval.make ~width:64 0x4000_0000_0000_0001L
  and b = Bitval.make ~width:63 0x4000_0000_0000_0002L in
  must_add t (e a 1);
  must_add t (e b 2);
  let installed () =
    List.map
      (fun (en : Table.entry) ->
        match (en.Table.patterns, en.Table.args) with
        | [ Table.M_exact v ], [ arg ] -> (Bitval.to_int64 v, Bitval.to_int arg)
        | _ -> Alcotest.fail "unexpected entry")
      (Table.entries t)
  in
  let pairs = Alcotest.(list (pair int64 int)) in
  check Alcotest.bool "mod A" true (Result.is_ok (Table.mod_entry t (e a 3)));
  check pairs "only A rebound"
    [ (Bitval.to_int64 a, 3); (Bitval.to_int64 b, 2) ]
    (installed ());
  check Alcotest.bool "a third wide value is not installed" true
    (Result.is_error
       (Table.del_entry t (e (Bitval.make ~width:64 0x4000_0000_0000_0003L) 0)));
  check Alcotest.bool "del B" true (Result.is_ok (Table.del_entry t (e b 0)));
  check pairs "only B gone" [ (Bitval.to_int64 a, 3) ] (installed ());
  check Alcotest.bool "B is gone" true (Result.is_error (Table.mod_entry t (e b 4)));
  check Alcotest.bool "del A" true (Result.is_ok (Table.del_entry t (e a 0)));
  check Alcotest.int "empty" 0 (Table.size t)

(* Disabling stats discards every tally, the per-entry hits included:
   afterwards the table reads as one that never counted. *)
let test_stats_disable_discards_hits () =
  let t = mk_table () in
  must_add t
    { Table.priority = 0; patterns = [ Table.M_exact (bv 8 1) ];
      action = "set_b"; args = [ bv 16 10 ] };
  Table.set_stats_enabled t true;
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 1;
  ignore (Table.apply t phv);
  ignore (Table.apply t phv);
  check Alcotest.(list int) "two hits counted" [ 2 ]
    (List.map snd (Table.entry_hits t));
  Table.set_stats_enabled t false;
  check Alcotest.bool "tallies gone" true (Table.stats t = None);
  check Alcotest.(list int) "per-entry hits gone" [ 0 ]
    (List.map snd (Table.entry_hits t))

(* Per-entry hits against a model, under add/del churn with lookups in
   between: every live entry counts exactly the lookups it won since it
   was installed, so no two live entries share a hit slot and a reused
   slot starts from zero. *)
let prop_entry_hits_match_model =
  QCheck.Test.make ~name:"per-entry hits under churn = model" ~count:300
    QCheck.(list_of_size Gen.(int_bound 80) (pair bool (int_bound 40)))
    (fun trace ->
      let t = mk_table ~max_size:64 () in
      Table.set_stats_enabled t true;
      let e k =
        { Table.priority = 0; patterns = [ Table.M_exact (bv 8 k) ];
          action = "set_b"; args = [ bv 16 k ] }
      in
      let model = Hashtbl.create 16 in
      let phv = fresh_phv () in
      List.iter
        (fun (write, k) ->
          if write then
            if Hashtbl.mem model k then begin
              ignore (Table.del_entry t (e k));
              Hashtbl.remove model k
            end
            else begin
              must_add t (e k);
              Hashtbl.replace model k 0
            end
          else begin
            Phv.set_int phv (fr "m" "a") k;
            if snd (Table.apply t phv) then
              Hashtbl.replace model k (Hashtbl.find model k + 1)
          end)
        trace;
      let key (entry : Table.entry) =
        match entry.Table.patterns with
        | [ Table.M_exact v ] -> Bitval.to_int v
        | _ -> -1
      in
      List.sort compare (List.map (fun (en, n) -> (key en, n)) (Table.entry_hits t))
      = List.sort compare (List.of_seq (Hashtbl.to_seq model)))

(* An entry's match key as the values it stands for: two generated
   entries have equal keys under {!Table.del_entry}'s identity exactly
   when these are equal (generated LPM values are already masked to
   their prefix). *)
let match_key (e : Table.entry) =
  let v = Bitval.to_int64 in
  ( e.Table.priority,
    List.map
      (function
        | Table.M_exact x -> [ 0L; v x ]
        | Table.M_ternary { value; mask } -> [ 1L; Int64.logand (v value) (v mask); v mask ]
        | Table.M_lpm { value; prefix_len } -> [ 2L; v value; Int64.of_int prefix_len ]
        | Table.M_range { lo; hi } -> [ 3L; v lo; v hi ]
        | Table.M_any -> [ 4L ])
      e.Table.patterns )

(* Differential property: a random add/del/mod trace maintained
   incrementally must keep the staged index equivalent to the linear
   reference scan after every op — same physical hit entry, so
   priority, longest-prefix and insertion-order tie-breaks survive
   deletions and in-place rebinds. Against a model of the installed
   match keys, a del or mod succeeds exactly when its key is installed,
   and a del removes one entry of that key: wide exact values, which
   share one index bucket and never match a lookup, are told apart
   there. *)
let prop_op_trace_matches_reference =
  QCheck.Test.make ~name:"add/del/mod trace: indexed lookup = reference scan"
    ~count:400
    QCheck.(
      pair
        (pair (int_bound 5)
           (list_of_size Gen.(int_bound 30)
              (quad small_nat small_nat small_nat (int_bound 0xffffff))))
        (triple small_nat small_nat small_nat))
    (fun ((cfg, raw_ops), (pa, pb, pc)) ->
      let keys = lookup_key_configs.(cfg) in
      let t =
        Table.make ~name:"t" ~keys ~actions:[ Action.no_op ]
          ~default:("NoAction", []) ~max_size:64 ()
      in
      Table.bind t lay;
      let agree () =
        let phv = fresh_phv () in
        Phv.set_int phv (fr "m" "a") (pa land 0xff);
        Phv.set_int phv (fr "m" "b") (pb land 0xffff);
        Phv.set_int phv (fr "m" "c") pc;
        (match (Table.lookup t phv, Table.lookup_reference t phv) with
        | `Miss, `Miss -> true
        | `Hit e1, `Hit e2 -> e1 == e2
        | `Hit _, `Miss | `Miss, `Hit _ -> false)
        && Table.size t = List.length (Table.entries t)
      in
      let model = ref [] in
      let rec remove_one k = function
        | [] -> []
        | k' :: rest -> if k' = k then rest else k' :: remove_one k rest
      in
      List.for_all
        (fun (op, v1, v2, m) ->
          let patterns =
            List.mapi
              (fun i k ->
                lookup_pattern_for ~wide:true k
                  ~v:(if i = 0 then v1 else v2)
                  ~m:(m lsr (i * 7)))
              keys
          in
          let entry =
            { Table.priority = (m lsr 20) land 3; patterns;
              action = "NoAction"; args = [] }
          in
          (* Dels and mods of absent keys legitimately error; the index
             must stay coherent either way. *)
          let k = match_key entry in
          let installed = List.mem k !model in
          (match op mod 4 with
          | 0 | 1 ->
              model := k :: !model;
              Result.is_ok (Table.add_entry t entry)
          | 2 ->
              let deleted = Result.is_ok (Table.del_entry t entry) in
              if deleted then model := remove_one k !model;
              deleted = installed
          | _ -> Result.is_ok (Table.mod_entry t entry) = installed)
          && agree ()
          && List.sort compare (List.map match_key (Table.entries t))
             = List.sort compare !model)
        raw_ops)

(* --- Index hash --- *)

(* The FIB shape the benchmark installs: 512 /24s and 32 /20s in
   172.16.0.0/12, plus a /16 and a default route. Masked prefixes end in
   zero bits — the keys an unmixed index hash piles into one bucket. *)
let fib_prefixes =
  List.init 512 (fun i ->
      (24, (172 lsl 24) lor ((16 + (i lsr 8)) lsl 16) lor ((i land 0xff) lsl 8)))
  @ List.init 32 (fun i ->
        (20, (172 lsl 24) lor ((24 + (i lsr 4)) lsl 16) lor ((i land 0xf) lsl 12)))
  @ [ (16, 10 lsl 24); (0, 0) ]

let lpm32 = [ { Table.field = fr "m" "c"; kind = Table.Lpm; width = 32 } ]

let lpm_entry ?(priority = 0) ?(action = "NoAction") ?(args = []) (plen, addr) =
  { Table.priority; patterns = [ Table.M_lpm { value = bv 32 addr; prefix_len = plen } ];
    action; args }

let test_index_buckets_spread () =
  let t = mk_table ~keys:lpm32 ~max_size:2048 () in
  List.iter (fun p -> must_add t (lpm_entry p)) fib_prefixes;
  (* 1,024 exact keys that are multiples of 256: equal low byte. *)
  for i = 0 to 1023 do
    must_add t
      { Table.priority = 0; patterns = [ Table.M_exact (bv 32 (i * 256)) ];
        action = "set_b"; args = [ bv 16 i ] }
  done;
  check Alcotest.int "all installed" (List.length fib_prefixes + 1024) (Table.size t);
  let longest = Table.max_bucket_length t in
  if longest > 4 then
    Alcotest.failf "longest index bucket holds %d keys (want <= 4)" longest;
  (* The exact keys still win over the covering prefixes. *)
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "c") (77 * 256);
  ignore (Table.apply t phv);
  check Alcotest.int "exact key hit" 77 (Phv.get_int phv (fr "m" "b"))

(* Differential property on structured keys: masked /8–/32 prefixes
   (zero low bits, the shape real FIBs have) and exact keys with the
   same low-bit pattern, probed both inside and outside the prefixes. *)
let prop_structured_lookup_matches_reference =
  let prefix =
    QCheck.Gen.(
      map3
        (fun plen addr exact ->
          let host = (1 lsl (32 - plen)) - 1 in
          (plen, addr land lnot host land 0xffffffff, exact))
        (int_range 8 32) (int_bound 0xffffffff) bool)
  in
  QCheck.Test.make ~name:"structured keys: indexed lookup = reference scan"
    ~count:300
    QCheck.(
      make
        Gen.(
          pair
            (list_size (int_range 1 64) (pair prefix (int_bound 1)))
            (list_size (return 16) (pair small_nat (int_bound 0xffffffff)))))
    (fun (prefixes, probes) ->
      let t = mk_table ~keys:lpm32 ~max_size:128 () in
      List.iter
        (fun ((plen, addr, exact), priority) ->
          must_add t
            (if exact then
               { Table.priority; patterns = [ Table.M_exact (bv 32 addr) ];
                 action = "NoAction"; args = [] }
             else lpm_entry ~priority (plen, addr)))
        prefixes;
      let addrs = Array.of_list (List.map (fun ((plen, a, _), _) -> (plen, a)) prefixes) in
      List.for_all
        (fun (i, low) ->
          (* Half the probes land inside an installed prefix. *)
          let plen, a = addrs.(i mod Array.length addrs) in
          let v =
            if i land 1 = 0 then a lor (low land ((1 lsl (32 - plen)) - 1)) else low
          in
          let phv = fresh_phv () in
          Phv.set_int phv (fr "m" "c") v;
          match (Table.lookup t phv, Table.lookup_reference t phv) with
          | `Miss, `Miss -> true
          | `Hit e1, `Hit e2 -> e1 == e2
          | `Hit _, `Miss | `Miss, `Hit _ -> false)
        probes)

(* --- Table.copy --- *)

(* One op of a random trace over a lookup_key_configs table: add, del or
   mod, with the action alternating between set_b and NoAction so mods
   rebind to another compiled action. *)
let trace_op keys (op, v1, v2, m) =
  let patterns =
    List.mapi
      (fun i k -> lookup_pattern_for k ~v:(if i = 0 then v1 else v2) ~m:(m lsr (i * 7)))
      keys
  in
  let action, args = if m land 1 = 0 then ("NoAction", []) else ("set_b", [ bv 16 v2 ]) in
  let entry = { Table.priority = (m lsr 20) land 3; patterns; action; args } in
  fun t ->
    match op mod 4 with
    | 0 | 1 -> ignore (Table.add_entry t entry)
    | 2 -> ignore (Table.del_entry t entry)
    | _ -> ignore (Table.mod_entry t entry)

let probe_phv (pa, pb, pc) =
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") (pa land 0xff);
  Phv.set_int phv (fr "m" "b") (pb land 0xffff);
  Phv.set_int phv (fr "m" "c") pc;
  phv

let same_hit t phv u =
  match (Table.lookup t phv, Table.lookup u phv) with
  | `Miss, `Miss -> true
  | `Hit e1, `Hit e2 -> e1 = e2
  | `Hit _, `Miss | `Miss, `Hit _ -> false

let prop_copy_matches_source =
  let op = QCheck.(quad small_nat small_nat small_nat (int_bound 0xffffff)) in
  QCheck.Test.make ~name:"copy after an op trace = source, and independent"
    ~count:300
    QCheck.(
      quad (int_bound 5)
        (list_of_size Gen.(int_bound 30) op)
        (list_of_size Gen.(int_bound 10) op)
        (list_of_size Gen.(return 8) (triple small_nat small_nat (int_bound 0xffffff))))
    (fun (cfg, trace, more, probes) ->
      let keys = lookup_key_configs.(cfg) in
      let src = mk_table ~keys ~max_size:64 () in
      List.iter (fun o -> trace_op keys o src) trace;
      let cp = Table.copy src in
      Table.bind cp lay;
      let phvs = List.map probe_phv probes in
      let agrees u =
        List.for_all
          (fun phv ->
            match (Table.lookup u phv, Table.lookup_reference u phv) with
            | `Miss, `Miss -> true
            | `Hit e1, `Hit e2 -> e1 == e2
            | `Hit _, `Miss | `Miss, `Hit _ -> false)
          phvs
      in
      let entries = Table.entries src in
      let closures_private =
        List.for_all
          (fun e ->
            match (Table.compiled_action src e, Table.compiled_action cp e) with
            | Some a, Some b -> a != b
            | _ -> false)
          entries
      in
      let same = Table.entries cp = entries && List.for_all (fun phv -> same_hit src phv cp) phvs in
      (* Stats pair by seq: every hit the copy takes lands on the
         source's entry of the same seq. A catch-all added to both sides
         after the copy takes the next seq of each side's allocator; its
         hits pair only if the two allocators agree (the trace may have
         deleted the newest entries, so the seq is not just [size]). *)
      Table.set_stats_enabled src true;
      Table.set_stats_enabled cp true;
      List.iter (fun phv -> ignore (Table.apply cp phv)) phvs;
      let catch_all =
        { Table.priority = 10; patterns = List.map (fun _ -> Table.M_any) keys;
          action = "NoAction"; args = [] }
      in
      must_add src catch_all;
      must_add cp catch_all;
      List.iter (fun phv -> ignore (Table.apply cp phv)) phvs;
      Table.merge_stats_from src ~src:cp;
      let stats_pair = Table.entry_hits src = Table.entry_hits cp in
      (* Mutating one side leaves the other as it was. *)
      let snapshot = Table.entries src in
      List.iter (fun o -> trace_op keys o cp) more;
      let src_untouched = Table.entries src = snapshot && agrees src in
      let cp_snapshot = Table.entries cp in
      List.iter (fun o -> trace_op keys o src) (List.rev more);
      Table.clear src;
      let cp_untouched = Table.entries cp = cp_snapshot && agrees cp in
      agrees cp && same && closures_private && stats_pair && src_untouched
      && cp_untouched)

(* Packed keys: exact tables of no key or two to four keys, whose
   widths sum to at most 62 bits (packed into one int) or past them,
   under a stream of adds, mods, dels and clears, against the reference
   scan after every op. Entry values are small, so probes hit; some are
   wider than their key (a bit above it, or 64 bits), which must never
   match, and some are [M_any], which must. A copy taken mid-stream
   then takes every other op, and both sides must keep agreeing with
   their own reference. *)
let prop_packed_lookup_matches_reference =
  let case =
    QCheck.Gen.(
      let* big = bool in
      let* widths =
        list_size (oneofl [ 0; 1; 2; 2; 3; 4 ]) (if big then int_range 20 40 else int_range 1 15)
      in
      let n = List.length widths in
      let* ops =
        list_size (int_bound 40)
          (quad (int_bound 12)
             (list_repeat n (pair (int_bound 9) (int_bound 3)))
             (int_bound 3) bool)
      in
      let* copy_at = int_bound 40 in
      let* probes = list_size (return 6) (list_repeat n (int_bound 3)) in
      return (widths, ops, copy_at, probes))
  in
  QCheck.Test.make ~name:"packed keys: indexed lookup = reference scan, copy included"
    ~count:400
    (QCheck.make ~print:(fun (w, ops, c, _) ->
         Printf.sprintf "widths [%s], %d ops, copy at %d"
           (String.concat "; " (List.map string_of_int w)) (List.length ops) c)
       case)
    (fun (widths, ops, copy_at, probes) ->
      let kname i = Printf.sprintf "k%d" i in
      let kdecl = Hdr.decl "k" (("z", 5) :: List.mapi (fun i w -> (kname i, w)) widths) in
      let klay = Phv.layout_of [ meta; kdecl ] in
      let keys =
        List.mapi
          (fun i w -> { Table.field = fr "k" (kname i); kind = Table.Exact; width = w })
          widths
      in
      let set_b =
        Action.make "set_b" ~params:[ ("v", 16) ] [ Action.Assign (fr "m" "b", Expr.Param "v") ]
      in
      let t =
        Table.make ~name:"t" ~keys ~actions:[ set_b; Action.no_op ] ~default:("NoAction", [])
          ~max_size:64 ()
      in
      let pattern w (code, v) =
        match code with
        | 7 -> Table.M_exact (Bitval.make ~width:(w + 1) (Int64.of_int ((1 lsl w) lor v)))
        | 8 -> Table.M_any
        | 9 -> Table.M_exact (Bitval.make ~width:64 (Int64.logor Int64.min_int (Int64.of_int v)))
        | _ -> Table.M_exact (bv w v)
      in
      let apply_op u (op, pats, prio, set) =
        let entry =
          { Table.priority = prio; patterns = List.map2 pattern widths pats;
            action = (if set then "set_b" else "NoAction");
            args = (if set then [ bv 16 prio ] else []) }
        in
        ignore
          (match op with
          | 0 | 1 | 2 | 3 | 4 | 5 -> Table.add_entry u entry
          | 6 | 7 | 8 -> Table.del_entry u entry
          | 12 -> Ok (Table.clear u)
          | _ -> Table.mod_entry u entry)
      in
      let phvs =
        List.map
          (fun vals ->
            let phv = Phv.of_layout klay in
            Phv.set_valid phv "m";
            Phv.set_valid phv "k";
            List.iteri (fun i v -> Phv.set_int phv (fr "k" (kname i)) v) vals;
            phv)
          probes
      in
      let agrees u =
        List.for_all
          (fun phv ->
            match (Table.lookup u phv, Table.lookup_reference u phv) with
            | `Miss, `Miss -> true
            | `Hit e1, `Hit e2 -> e1 == e2
            | `Hit _, `Miss | `Miss, `Hit _ -> false)
          phvs
      in
      let cp = ref None in
      List.for_all
        (fun x -> x)
        (List.mapi
           (fun i op ->
             if i = copy_at then cp := Some (Table.copy t);
             (match !cp with
             | Some c when i land 1 = 1 -> apply_op c op
             | Some _ | None -> apply_op t op);
             agrees t && match !cp with Some c -> agrees c | None -> true)
           ops))

(* Entries naming one action share the table's compiled closure; a copy
   compiles its own. *)
let test_compiled_actions_shared () =
  let t = mk_table () in
  let e v = { Table.priority = 0; patterns = [ Table.M_exact (bv 8 v) ];
              action = "set_b"; args = [ bv 16 v ] } in
  must_add t (e 1);
  must_add t (e 2);
  let run t v = Option.get (Table.compiled_action t (e v)) in
  check Alcotest.bool "one closure per action" true (run t 1 == run t 2);
  let c = Table.copy t in
  check Alcotest.bool "a copy starts unbound" true (Option.is_none (Table.compiled_action c (e 1)));
  Table.bind c lay;
  check Alcotest.bool "copy compiles its own" true (run c 1 != run t 1);
  check Alcotest.bool "shared within the copy" true (run c 1 == run c 2);
  (match Table.mod_entry t { (e 1) with Table.action = "NoAction"; args = [] } with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  check Alcotest.bool "mod repoints" true (run t 1 != run t 2);
  check Alcotest.bool "mod leaves the copy" true (run c 1 == run c 2)

(* --- Control --- *)

let mk_env tables name = List.find_opt (fun t -> Table.name t = name) tables

let test_control_apply_switch () =
  let t = mk_table () in
  must_add t
    { Table.priority = 0; patterns = [ Table.M_exact (bv 8 1) ];
      action = "set_b"; args = [ bv 16 7 ] };
  let control =
    Control.make "c"
      [
        Control.Apply_switch
          ( "t",
            [
              ( "set_b",
                [ Control.Run [ Action.Assign (fr "m" "c", Expr.const ~width:32 111) ] ]
              );
            ],
            [ Control.Run [ Action.Assign (fr "m" "c", Expr.const ~width:32 222) ] ]
          );
      ]
  in
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 1;
  Control.exec (mk_env [ t ]) control phv;
  check Alcotest.int "switch branch" 111 (Phv.get_int phv (fr "m" "c"));
  Phv.set_int phv (fr "m" "a") 0;
  Control.exec (mk_env [ t ]) control phv;
  check Alcotest.int "default branch" 222 (Phv.get_int phv (fr "m" "c"))

let test_control_apply_hit () =
  let t = mk_table () in
  must_add t
    { Table.priority = 0; patterns = [ Table.M_exact (bv 8 9) ];
      action = "NoAction"; args = [] };
  let control =
    Control.make "c"
      [
        Control.Apply_hit
          ( "t",
            [ Control.Run [ Action.Assign (fr "m" "b", Expr.const ~width:16 1) ] ],
            [ Control.Run [ Action.Assign (fr "m" "b", Expr.const ~width:16 2) ] ] );
      ]
  in
  let phv = fresh_phv () in
  Phv.set_int phv (fr "m" "a") 9;
  Control.exec (mk_env [ t ]) control phv;
  check Alcotest.int "hit branch" 1 (Phv.get_int phv (fr "m" "b"));
  Phv.set_int phv (fr "m" "a") 8;
  Control.exec (mk_env [ t ]) control phv;
  check Alcotest.int "miss branch" 2 (Phv.get_int phv (fr "m" "b"))

let test_control_trace_and_rename () =
  let t = mk_table () in
  let control = Control.make "c" [ Control.Label ("nf1", [ Control.Apply "t" ]) ] in
  let renamed = Control.map_tables (fun n -> "x__" ^ n) control in
  check Alcotest.(list string) "tables renamed" [ "x__t" ]
    (Control.tables_used renamed);
  let trace = ref [] in
  Control.exec ~trace (mk_env [ t ]) control (fresh_phv ());
  check Alcotest.int "trace has label + table" 2 (List.length !trace)

let test_control_validate () =
  let control = Control.make "c" [ Control.Apply "missing" ] in
  check Alcotest.bool "unknown table rejected" true
    (Result.is_error (Control.validate (mk_env []) control));
  let t = mk_table () in
  let bad_switch =
    Control.make "c" [ Control.Apply_switch ("t", [ ("ghost", []) ], []) ]
  in
  check Alcotest.bool "unknown switch action rejected" true
    (Result.is_error (Control.validate (mk_env [ t ]) bad_switch))

let test_gateway_count () =
  let control =
    Control.make "c"
      [
        Control.If
          (Expr.const ~width:1 1, [ Control.If (Expr.const ~width:1 0, [], []) ], []);
      ]
  in
  check Alcotest.int "nested ifs counted" 2 (Control.gateway_count control)

(* Differential property: a precompiled control must have the same
   observable behavior as the statement-tree interpreter — identical
   PHV effects, identical trace events (including rendered gateway
   condition strings) and the same exception, if any — on random
   programs and random packet state. Blocks hold 0–5 statements, nested
   three deep, so the fused blocks of one, two and three statements and
   the loop past them all run, over the shapes Dejavu composes: the
   [!sfc.isValid()] and [to_cpu_flag == 0] gateways, an empty keyless
   flags table whose default copies three fields, a [check_nextNF]
   switch on a two-key (packed) table, and inline runs of one to four
   assignments from a field, a constant, a field plus a constant or an
   (unbound, so raising) parameter. *)
let gen_control_body =
  let open QCheck.Gen in
  let field = oneofl [ ("a", 8); ("b", 16); ("c", 32) ] in
  let src =
    frequency
      [
        (10, map (fun (f, _) -> Expr.Field (fr "m" f)) field);
        (10, map2 (fun w v -> Expr.const ~width:w v) (int_range 1 32) (int_bound 0xffff));
        ( 10,
          map2
            (fun (f, w) v -> Expr.(Field (fr "m" f) + const ~width:w v))
            field (int_bound 0xff) );
        (1, return (Expr.Param "p"));
      ]
  in
  let prim =
    frequency
      [
        (8, map2 (fun (f, _) e -> Action.Assign (fr "m" f, e)) field src);
        (1, oneofl [ Action.Set_valid "m"; Action.Set_invalid "m"; Action.No_op ]);
      ]
  in
  let gateway =
    frequency
      [
        (2, return (Expr.Un (Expr.LNot, Expr.Valid "m")));
        (1, return (Expr.Valid "m"));
        (3, map2 (fun (f, w) v -> Expr.(Field (fr "m" f) = const ~width:w v)) field (int_bound 2));
        ( 2,
          map3
            (fun op (f, w) v -> Expr.Bin (op, Expr.Field (fr "m" f), Expr.const ~width:w v))
            (oneofl Expr.[ Neq; Lt; Le; Gt; Ge ])
            field (int_bound 0xff) );
        ( 1,
          map2
            (fun (f, w) v ->
              Expr.(Valid "m" && Un (LNot, Field (fr "m" f) = const ~width:w v)))
            field (int_bound 2) );
      ]
  in
  sized_size (int_bound 3)
  @@ fix (fun self depth ->
         let nested = if depth = 0 then return [] else self (depth - 1) in
         let stmt =
           frequency
             ([
                (4, map (fun prims -> Control.Run prims) (list_size (int_range 1 4) prim));
                (2, oneofl [ Control.Apply "t"; Control.Apply "flags" ]);
              ]
             @
             if depth = 0 then []
             else
               [
                 (3, map3 (fun c a b -> Control.If (c, a, b)) gateway nested nested);
                 (1, map2 (fun a b -> Control.Apply_hit ("t", a, b)) nested nested);
                 ( 1,
                   map2
                     (fun a d -> Control.Apply_switch ("t", [ ("set_b", a) ], d))
                     nested nested );
                 ( 2,
                   map (fun a -> Control.Apply_switch ("next", [ ("proceed", a) ], [])) nested
                 );
                 (1, map (fun b -> Control.Label ("nf", b)) nested);
               ])
         in
         list_size (int_bound 5) stmt)

let prop_compiled_control_matches_exec =
  QCheck.Test.make ~name:"compiled control = interpreter" ~count:300
    QCheck.(
      make
        ~print:(fun (body, _) -> Format.asprintf "%a" Control.pp (Control.make "c" body))
        Gen.(pair gen_control_body (quad bool (int_bound 3) (int_bound 3) int)))
    (fun (body, (valid, pa, pb, pc)) ->
      let t = mk_table () in
      List.iter
        (fun v ->
          must_add t
            { Table.priority = 0; patterns = [ Table.M_exact (bv 8 v) ];
              action = "set_b"; args = [ bv 16 (100 + v) ] })
        [ 1; 2; 3 ];
      let flags =
        Table.make ~name:"flags" ~keys:[]
          ~actions:
            [
              Action.make "translate"
                [
                  Action.Assign (fr "m" "c", Expr.Field (fr "m" "a"));
                  Action.Assign (fr "m" "a", Expr.Field (fr "m" "b"));
                  Action.Assign (fr "m" "b", Expr.const ~width:16 7);
                ];
            ]
          ~default:("translate", []) ()
      in
      let next =
        Table.make ~name:"next"
          ~keys:
            [
              { Table.field = fr "m" "b"; kind = Table.Exact; width = 16 };
              { Table.field = fr "m" "a"; kind = Table.Exact; width = 8 };
            ]
          ~actions:[ Action.make "proceed" [ Action.No_op ]; Action.make "skip" [] ]
          ~default:("skip", []) ()
      in
      List.iter
        (fun (b, a) ->
          must_add next
            { Table.priority = 0; patterns = [ Table.M_exact (bv 16 b); Table.M_exact (bv 8 a) ];
              action = "proceed"; args = [] })
        [ (0, 0); (1, 2); (7, 1); (101, 3) ];
      let env = mk_env [ t; flags; next ] in
      let control = Control.make "c" body in
      let phv1 = Phv.of_layout lay in
      if valid then Phv.set_valid phv1 "m";
      Phv.set_int phv1 (fr "m" "a") pa;
      Phv.set_int phv1 (fr "m" "b") pb;
      Phv.set_int phv1 (fr "m" "c") pc;
      let phv2 = Phv.copy phv1 in
      let tr1 = ref [] and tr2 = ref [] in
      let outcome f =
        match f () with
        | () -> Ok ()
        | exception Invalid_argument m -> Error m
        | exception Not_found -> Error "Not_found"
      in
      let o1 = outcome (fun () -> Control.exec ~trace:tr1 env control phv1) in
      let compiled = Control.compile ~layout:(Phv.layout phv2) env control in
      let o2 = outcome (fun () -> Control.run_compiled ~trace:tr2 compiled phv2) in
      o1 = o2 && Phv.equal phv1 phv2 && !tr1 = !tr2)

(* --- Deps / Resources --- *)

let two_table_program ~dependent =
  (* t1 writes m.a; t2 matches m.a (dependent) or m.b (independent). *)
  let t1 =
    Table.make ~name:"t1"
      ~keys:[ { Table.field = fr "m" "c"; kind = Table.Exact; width = 32 } ]
      ~actions:
        [ Action.make "w" [ Action.Assign (fr "m" "a", Expr.const ~width:8 1) ] ]
      ~default:("w", []) ()
  in
  let key = if dependent then fr "m" "a" else fr "m" "b" in
  let t2 =
    Table.make ~name:"t2"
      ~keys:[ { Table.field = key; kind = Table.Exact; width = 8 } ]
      ~actions:[ Action.no_op ] ~default:("NoAction", []) ()
  in
  let control = Control.make "c" [ Control.Apply "t1"; Control.Apply "t2" ] in
  (mk_env [ t1; t2 ], control)

let test_match_dependency_forces_stage () =
  let env, control = two_table_program ~dependent:true in
  let stages, total = Deps.min_stages env control in
  check Alcotest.int "t1 at stage 0" 0 (List.assoc "t1" stages);
  check Alcotest.int "t2 pushed to stage 1" 1 (List.assoc "t2" stages);
  check Alcotest.int "two stages total" 2 total

let test_independent_tables_share_stage () =
  let env, control = two_table_program ~dependent:false in
  let stages, total = Deps.min_stages env control in
  check Alcotest.int "t2 stays at stage 0" 0 (List.assoc "t2" stages);
  check Alcotest.int "one stage total" 1 total

let test_gateway_reads_create_dependency () =
  let t1 =
    Table.make ~name:"t1" ~keys:[]
      ~actions:
        [ Action.make "w" [ Action.Assign (fr "m" "a", Expr.const ~width:8 1) ] ]
      ~default:("w", []) ()
  in
  let t2 =
    Table.make ~name:"t2"
      ~keys:[ { Table.field = fr "m" "b"; kind = Table.Exact; width = 16 } ]
      ~actions:[ Action.no_op ] ~default:("NoAction", []) ()
  in
  let control =
    Control.make "c"
      [
        Control.Apply "t1";
        Control.If
          (Expr.(Field (fr "m" "a") = const ~width:8 1), [ Control.Apply "t2" ], []);
      ]
  in
  let stages, _ = Deps.min_stages (mk_env [ t1; t2 ]) control in
  check Alcotest.int "guarded table depends on writer" 1 (List.assoc "t2" stages)

let test_resources_exact_vs_ternary () =
  let exact = mk_table () in
  let tern =
    mk_table ~keys:[ { Table.field = fr "m" "a"; kind = Table.Ternary; width = 8 } ] ()
  in
  let re = Resources.of_table exact and rt = Resources.of_table tern in
  check Alcotest.bool "exact uses sram" true (re.Resources.srams > 0);
  check Alcotest.int "exact uses no tcam" 0 re.Resources.tcams;
  check Alcotest.bool "ternary uses tcam" true (rt.Resources.tcams > 0)

let test_resources_fits () =
  let caps =
    Resources.scale 2
      {
        Resources.stages = 1;
        table_ids = 4;
        srams = 10;
        tcams = 2;
        crossbar_bytes = 16;
        vliws = 8;
        gateways = 4;
        hash_bits = 64;
      }
  in
  let demand = Resources.{ zero with stages = 1; table_ids = 3 } in
  check Alcotest.bool "fits" true (Resources.fits demand ~cap:caps);
  check Alcotest.bool "too many stages" false
    (Resources.fits Resources.{ demand with stages = 3 } ~cap:caps)

let test_resources_max_merge () =
  let a = Resources.{ zero with stages = 3; srams = 2 } in
  let b = Resources.{ zero with stages = 1; srams = 5 } in
  let m = Resources.max_merge a b in
  check Alcotest.int "stages take max" 3 m.Resources.stages;
  check Alcotest.int "memories add" 7 m.Resources.srams

let () =
  Alcotest.run "p4ir"
    [
      ( "hdr_phv",
        [
          Alcotest.test_case "decl validation" `Quick test_decl_validation;
          Alcotest.test_case "extract/emit roundtrip" `Quick
            test_hdr_extract_emit_roundtrip;
          Alcotest.test_case "set resizes" `Quick test_hdr_set_resizes;
          Alcotest.test_case "wire codec places" `Quick test_codec_places;
          Alcotest.test_case "wire codec cells range" `Quick test_codec_cells_range;
          qtest prop_codec_random;
          qtest prop_codec_declared;
          Alcotest.test_case "phv validity" `Quick test_phv_validity;
          Alcotest.test_case "phv copy isolation" `Quick test_phv_copy_isolated;
          Alcotest.test_case "phv decl conflict" `Quick test_phv_conflicting_decl;
        ] );
      ( "expr",
        [
          Alcotest.test_case "modular arith" `Quick test_expr_arith;
          Alcotest.test_case "comparisons" `Quick test_expr_comparisons;
          Alcotest.test_case "validity bit" `Quick test_expr_valid_bit;
          Alcotest.test_case "crc32 hash" `Quick test_expr_hash_matches_crc32;
          Alcotest.test_case "unbound param" `Quick test_expr_unbound_param;
          Alcotest.test_case "read sets" `Quick test_expr_reads;
          Alcotest.test_case "static widths" `Quick test_expr_widest;
          qtest prop_compiled_expr_matches_eval;
          Alcotest.test_case "validate rejects wide expressions" `Quick
            test_validate_rejects_wide_expressions;
          Alcotest.test_case "validate refuses unresolved names" `Quick
            test_validate_refuses_unresolved_names;
        ] );
      ( "action",
        [
          Alcotest.test_case "params" `Quick test_action_params;
          Alcotest.test_case "read/write sets" `Quick test_action_read_write_sets;
        ] );
      ( "table",
        [
          Alcotest.test_case "exact hit/miss" `Quick test_table_exact_hit_miss;
          Alcotest.test_case "priority" `Quick test_table_priority;
          Alcotest.test_case "lpm longest prefix" `Quick test_table_lpm_longest_prefix;
          Alcotest.test_case "range" `Quick test_table_range;
          Alcotest.test_case "capacity" `Quick test_table_capacity;
          Alcotest.test_case "entry validation" `Quick test_table_entry_validation;
          Alcotest.test_case "keyless default" `Quick test_keyless_table_runs_default;
          Alcotest.test_case "del_entry" `Quick test_table_del_entry;
          Alcotest.test_case "mod_entry" `Quick test_table_mod_entry;
          Alcotest.test_case "mod keeps tie-break" `Quick
            test_table_mod_keeps_tiebreak;
          Alcotest.test_case "stats merge after churn" `Quick
            test_stats_merge_after_churn;
          Alcotest.test_case "stats merge skips a reused slot" `Quick
            test_stats_merge_reused_slot;
          Alcotest.test_case "wide exact values share a bucket" `Quick
            test_wide_exact_values_share_a_bucket;
          Alcotest.test_case "disabling stats discards hits" `Quick
            test_stats_disable_discards_hits;
          qtest prop_entry_hits_match_model;
          qtest prop_ternary_lookup_model;
          qtest prop_indexed_lookup_matches_reference;
          qtest prop_op_trace_matches_reference;
          Alcotest.test_case "index buckets spread" `Quick test_index_buckets_spread;
          qtest prop_structured_lookup_matches_reference;
          Alcotest.test_case "compiled actions shared" `Quick
            test_compiled_actions_shared;
          qtest prop_copy_matches_source;
          qtest prop_packed_lookup_matches_reference;
        ] );
      ( "control",
        [
          Alcotest.test_case "apply_switch" `Quick test_control_apply_switch;
          Alcotest.test_case "apply_hit" `Quick test_control_apply_hit;
          Alcotest.test_case "trace and rename" `Quick test_control_trace_and_rename;
          Alcotest.test_case "validate" `Quick test_control_validate;
          Alcotest.test_case "gateway count" `Quick test_gateway_count;
          qtest prop_compiled_control_matches_exec;
        ] );
      ( "deps_resources",
        [
          Alcotest.test_case "match dep forces stage" `Quick
            test_match_dependency_forces_stage;
          Alcotest.test_case "independent share stage" `Quick
            test_independent_tables_share_stage;
          Alcotest.test_case "gateway dependency" `Quick
            test_gateway_reads_create_dependency;
          Alcotest.test_case "exact vs ternary memories" `Quick
            test_resources_exact_vs_ternary;
          Alcotest.test_case "fits" `Quick test_resources_fits;
          Alcotest.test_case "max_merge" `Quick test_resources_max_merge;
        ] );
    ]
