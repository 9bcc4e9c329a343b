type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let fixed d x =
  let p = 10.0 ** float_of_int d in
  Float (Float.round (x *. p) /. p)

let esc s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let str s = "\"" ^ esc s ^ "\""

(* The shortest decimal that reads back as the same float; integral
   values print without a fraction. *)
let float_to_string x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let rec go prec =
      let s = Printf.sprintf "%.*g" prec x in
      if prec >= 17 || float_of_string s = x then s else go (prec + 1)
    in
    go 15

(* [op] items [cl], each item preceded by [sep] but the first by
   [first], and [last] before [cl] when there are items. *)
let items b ~first ~sep ~last op cl add l =
  Buffer.add_char b op;
  List.iteri
    (fun i x ->
      Buffer.add_string b (if i = 0 then first else sep);
      add x)
    l;
  if l <> [] then Buffer.add_string b last;
  Buffer.add_char b cl

let key b k =
  Buffer.add_string b (str k);
  Buffer.add_string b ": "

let rec compact b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float x -> Buffer.add_string b (float_to_string x)
  | String s -> Buffer.add_string b (str s)
  | List l -> items b ~first:"" ~sep:", " ~last:"" '[' ']' (compact b) l
  | Obj m ->
      items b ~first:"" ~sep:", " ~last:"" '{' '}'
        (fun (k, v) ->
          key b k;
          compact b v)
        m

let compact_string v =
  let b = Buffer.create 64 in
  compact b v;
  Buffer.contents b

let width = 120

(* [col] is the column [v] starts at, [indent] the indentation of its
   line: a list or object that does not fit before [width] puts each
   item on its own line, two spaces deeper. *)
let rec layout b ~indent ~col v =
  let flat = compact_string v in
  let broken add l op cl =
    let pad = "\n" ^ String.make (indent + 2) ' ' in
    items b ~first:pad ~sep:("," ^ pad)
      ~last:("\n" ^ String.make indent ' ')
      op cl add l
  in
  match v with
  | List l when col + String.length flat > width ->
      broken (layout b ~indent:(indent + 2) ~col:(indent + 2)) l '[' ']'
  | Obj m when col + String.length flat > width ->
      broken
        (fun (k, v) ->
          key b k;
          layout b ~indent:(indent + 2)
            ~col:(indent + 4 + String.length (str k))
            v)
        m '{' '}'
  | _ -> Buffer.add_string b flat

let to_string ?(pretty = false) v =
  if not pretty then compact_string v
  else begin
    let b = Buffer.create 1024 in
    layout b ~indent:0 ~col:0 v;
    Buffer.contents b
  end
