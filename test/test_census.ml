(* The interface census: every value that an interface under lib/
   exports has a caller outside its own module, in another library
   module, a test, a bench, an example or the CLI.

   Exports are read with the compiler's parser and uses with its lexer,
   so comments and strings never count as callers. A use of [M.x] (or
   of [M.Sub.x], for a value of a nested module) is a qualified name in
   another file whose module path ends with [M] (or [M.Sub]), either as
   written or after one of the file's opens. A file opens [M] with
   [open M], [include M], a local open [M.( ... )] or an alias
   [module N = M]; there, a bare [x] counts too, and an operator
   counts where its token appears. A module passed whole, to a functor
   or as a first-class module, calls none of its values here; the
   compiler still refuses to unexport one such a use needs.

   Usage: test_census.exe [ROOT], where ROOT (default "..") holds lib,
   bin, bench, examples and test. *)

let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else ".."
let dirs = [ "lib"; "bin"; "bench"; "examples"; "test" ]

let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then
           if f.[0] = '_' || f.[0] = '.' then [] else sources p
         else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
         then [ p ]
         else [])

let module_name p =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename p))

let lexbuf p =
  let lb = Lexing.from_string (In_channel.with_open_bin p In_channel.input_all) in
  Location.init lb p;
  lb

(* --- exports: (module path, value name) per .mli ---------------------- *)

let rec values path (items : Parsetree.signature) =
  List.concat_map
    (fun (item : Parsetree.signature_item) ->
      match item.psig_desc with
      | Psig_value v -> [ (path, v.pval_name.txt) ]
      | Psig_module
          {
            pmd_name = { txt = Some m; _ };
            pmd_type = { pmty_desc = Pmty_signature s; _ };
            _;
          } ->
          values (path @ [ m ]) s
      | _ -> [])
    items

let exports p = values [ module_name p ] (Parse.interface (lexbuf p))

(* --- uses: what one file names ---------------------------------------- *)

type uses = {
  qualified : (string list * string) list;  (** module path, value name *)
  bare : (string, unit) Hashtbl.t;  (** unqualified names and operators *)
  opens : string list list;
}

let operator : Parser.token -> string option = function
  | PLUS -> Some "+"
  | MINUS -> Some "-"
  | STAR -> Some "*"
  | PERCENT -> Some "%"
  | EQUAL -> Some "="
  | LESS -> Some "<"
  | GREATER -> Some ">"
  | AMPERAMPER -> Some "&&"
  | BARBAR -> Some "||"
  | PLUSDOT -> Some "+."
  | MINUSDOT -> Some "-."
  | COLONEQUAL -> Some ":="
  | BANG -> Some "!"
  | INFIXOP0 s | INFIXOP1 s | INFIXOP2 s | INFIXOP3 s | INFIXOP4 s
  | PREFIXOP s | HASHOP s | LETOP s | ANDOP s ->
      Some s
  | _ -> None

let uses p =
  Lexer.init ();
  let lb = lexbuf p in
  let rec read acc =
    match Lexer.token lb with Parser.EOF -> List.rev acc | t -> read (t :: acc)
  in
  let toks = Array.of_list (read []) in
  let n = Array.length toks in
  let tok i = if i < n then toks.(i) else Parser.EOF in
  (* The module path [A.B.C] starting at [i], and the index after it. *)
  let rec path i acc =
    match (tok i, tok (i + 1), tok (i + 2)) with
    | UIDENT m, DOT, UIDENT _ -> path (i + 2) (m :: acc)
    | UIDENT m, _, _ -> (List.rev (m :: acc), i + 1)
    | _ -> (List.rev acc, i)
  in
  let qualified = ref [] and opens = ref [] and aliases = Hashtbl.create 8 in
  let bare = Hashtbl.create 256 in
  let rec go i =
    if i < n then
      match (tok i, tok (i + 1)) with
      | (OPEN | INCLUDE), _ ->
          let i = if tok (i + 1) = BANG then i + 2 else i + 1 in
          let m, j = path i [] in
          if m <> [] then opens := m :: !opens;
          go j
      | MODULE, UIDENT a when tok (i + 2) = EQUAL ->
          let m, j = path (i + 3) [] in
          if m <> [] then (
            Hashtbl.replace aliases a m;
            opens := m :: !opens);
          go j
      | UIDENT _, _ -> (
          let m, j = path i [] in
          match (tok j, tok (j + 1)) with
          | DOT, LIDENT x ->
              qualified := (m, x) :: !qualified;
              go (j + 2)
          | DOT, (LPAREN | LBRACE | LBRACKET | LBRACKETBAR) ->
              opens := m :: !opens;
              go (j + 1)
          | _ -> go j)
      | DOT, LIDENT _ -> go (i + 2)
      | LIDENT x, _ ->
          Hashtbl.replace bare x ();
          go (i + 1)
      | t, _ ->
          Option.iter (fun op -> Hashtbl.replace bare op ()) (operator t);
          go (i + 1)
  in
  go 0;
  let resolve = function
    | a :: rest when Hashtbl.mem aliases a -> Hashtbl.find aliases a @ rest
    | m -> m
  in
  {
    qualified = List.map (fun (m, x) -> (resolve m, x)) !qualified;
    bare;
    opens = List.map resolve !opens;
  }

(* --- the census -------------------------------------------------------- *)

let ends_with ~suffix l =
  let drop = List.length l - List.length suffix in
  drop >= 0 && List.filteri (fun i _ -> i >= drop) l = suffix

let calls u (m, x) =
  let opened = List.exists (ends_with ~suffix:m) u.opens in
  (opened && Hashtbl.mem u.bare x)
  || List.exists
       (fun (q, y) ->
         y = x
         && (ends_with ~suffix:m q
            || List.exists (fun o -> ends_with ~suffix:m (o @ q)) u.opens))
       u.qualified

let uncalled () =
  let files = List.concat_map (fun d -> sources (Filename.concat root d)) dirs in
  let used = List.map (fun p -> (Filename.remove_extension p, uses p)) files in
  List.concat_map
    (fun p ->
      if
        Filename.check_suffix p ".mli"
        && String.starts_with ~prefix:(Filename.concat root "lib") p
      then
        let own = Filename.remove_extension p in
        exports p
        |> List.filter (fun v ->
               not (List.exists (fun (f, u) -> f <> own && calls u v) used))
        |> List.map (fun (m, x) ->
               Printf.sprintf "%s: %s.%s" p (String.concat "." m) x)
      else [])
    files

let test_census () =
  match uncalled () with
  | [] -> ()
  | l ->
      Alcotest.failf "%d exported values have no caller outside their module:\n%s"
        (List.length l) (String.concat "\n" l)

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "census"
    [
      ( "interfaces",
        [ Alcotest.test_case "every export has a caller" `Quick test_census ] );
    ]
