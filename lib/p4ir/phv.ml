(* The PHV is one flat [int array] of cells under an immutable layout.
   Header k of the layout owns a validity cell at [bases.(k)] (0 or 1)
   followed by one cell per field, in declaration order, each holding
   the field's value as an immediate int (widths live in the decl). A
   layout is never mutated: [add_decl] swaps in an extended copy, so a
   closure compiled against a layout can trust every cell index it
   resolved for as long as a PHV still points at that layout. *)

type layout = {
  decls : Hdr.decl array;
  names : (string, int) Hashtbl.t;
  bases : int array;
  ncells : int;
}

type t = { mutable lay : layout; mutable cells : int array }

let empty_layout =
  { decls = [||]; names = Hashtbl.create 1; bases = [||]; ncells = 0 }

(* [lay] plus [d] at the end; [lay] itself when an equal declaration is
   already present. *)
let extend lay (d : Hdr.decl) =
  match Hashtbl.find_opt lay.names d.Hdr.name with
  | Some k ->
      if not (Hdr.equal_decl lay.decls.(k) d) then
        invalid_arg
          (Printf.sprintf "Phv.add_decl: conflicting declaration for %s"
             d.Hdr.name);
      lay
  | None ->
      let names = Hashtbl.copy lay.names in
      Hashtbl.replace names d.Hdr.name (Array.length lay.decls);
      {
        decls = Array.append lay.decls [| d |];
        names;
        bases = Array.append lay.bases [| lay.ncells |];
        ncells = lay.ncells + 1 + Hdr.n_fields d;
      }

let layout_of decls = List.fold_left extend empty_layout decls
let layout t = t.lay
let of_layout lay = { lay; cells = Array.make lay.ncells 0 }

let create decls =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (d : Hdr.decl) ->
      if Hashtbl.mem seen d.Hdr.name then
        invalid_arg
          (Printf.sprintf "Phv.create: duplicate declaration %s" d.Hdr.name);
      Hashtbl.add seen d.Hdr.name ())
    decls;
  of_layout (layout_of decls)

let add_decl t d =
  let lay = extend t.lay d in
  if lay != t.lay then begin
    let cells = Array.make lay.ncells 0 in
    Array.blit t.cells 0 cells 0 (Array.length t.cells);
    t.lay <- lay;
    t.cells <- cells
  end

let decls t = Array.to_list t.lay.decls

(* --- Layout resolution (compile time) --- *)

let valid_cell lay h = lay.bases.(Hashtbl.find lay.names h)

let field_pos lay (r : Fieldref.t) =
  let k = Hashtbl.find lay.names r.Fieldref.hdr in
  let i = Hdr.field_index lay.decls.(k) r.Fieldref.field in
  (lay.bases.(k) + 1 + i, lay.decls.(k).Hdr.fwidths.(i))

let field_cell lay r = fst (field_pos lay r)
let field_width lay r = snd (field_pos lay r)
let decl_in lay h = lay.decls.(Hashtbl.find lay.names h)

(* --- Cell access (run time, for code bound to [layout t]) --- *)

let cell t i = t.cells.(i)
let set_cell t i v = t.cells.(i) <- v

let extract_at t (d : Hdr.decl) vc b ~bit_off =
  Hdr.read_fields d t.cells ~pos:(vc + 1) b ~bit_off;
  t.cells.(vc) <- 1

let emit_at t (d : Hdr.decl) vc b ~bit_off =
  Hdr.write_fields d t.cells ~pos:(vc + 1) b ~bit_off

let decode_at t (d : Hdr.decl) vc b ~off =
  Hdr.read_wire d t.cells ~pos:(vc + 1) b ~off;
  t.cells.(vc) <- 1

let encode_at t (d : Hdr.decl) vc b ~off =
  Hdr.write_wire d t.cells ~pos:(vc + 1) b ~off

(* --- Name-resolved access --- *)

let is_valid t name =
  match Hashtbl.find_opt t.lay.names name with
  | Some k -> t.cells.(t.lay.bases.(k)) = 1
  | None -> false

let set_valid t name = t.cells.(valid_cell t.lay name) <- 1
let set_invalid t name = t.cells.(valid_cell t.lay name) <- 0

let get_int t r = t.cells.(field_cell t.lay r)

let get t r =
  let c, w = field_pos t.lay r in
  Bitval.of_int ~width:w t.cells.(c)

let set_int t r v =
  let c, w = field_pos t.lay r in
  t.cells.(c) <- v land Hdr.mask w

let set t r v =
  let c, w = field_pos t.lay r in
  t.cells.(c) <- Int64.to_int (Bitval.to_int64 (Bitval.resize v w))

let copy t = { lay = t.lay; cells = Array.copy t.cells }

(* Header by header, by name: two PHVs of different layouts (a parsed
   reference PHV and a template copy) are equal when they hold the same
   headers with the same validity and values. *)
let equal a b =
  Array.length a.lay.decls = Array.length b.lay.decls
  && Array.for_all
       (fun (d : Hdr.decl) ->
         match Hashtbl.find_opt b.lay.names d.Hdr.name with
         | None -> false
         | Some kb ->
             Hdr.equal_decl d b.lay.decls.(kb)
             &&
             let ba = valid_cell a.lay d.Hdr.name and bb = b.lay.bases.(kb) in
             let rec go i =
               i > Hdr.n_fields d || (a.cells.(ba + i) = b.cells.(bb + i) && go (i + 1))
             in
             go 0)
       a.lay.decls
