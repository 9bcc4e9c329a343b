type field = { name : string; width : int }

let max_width = Netpkt.Bytes_util.max_int_width

(* Everything a per-packet operation needs is precomputed here, once per
   declaration: fields as an array, a name -> position table, per-field
   bit offsets and widths for extract/emit. *)
type decl = {
  name : string;
  fields : field list;
  farr : field array;
  findex : (string, int) Hashtbl.t;
  foffs : int array;
  fwidths : int array;
  nbits : int;
}

let decl name fields =
  let seen = Hashtbl.create 8 in
  let fields =
    List.map
      (fun (fname, width) ->
        if width < 1 || width > max_width then
          invalid_arg
            (Printf.sprintf "Hdr.decl %s: field %s width %d not in 1..%d" name
               fname width max_width);
        if Hashtbl.mem seen fname then
          invalid_arg
            (Printf.sprintf "Hdr.decl %s: duplicate field %s" name fname);
        Hashtbl.add seen fname ();
        { name = fname; width })
      fields
  in
  let farr = Array.of_list fields in
  let n = Array.length farr in
  let findex = Hashtbl.create (max 8 n) in
  let foffs = Array.make n 0 in
  let off = ref 0 in
  Array.iteri
    (fun i (f : field) ->
      Hashtbl.replace findex f.name i;
      foffs.(i) <- !off;
      off := !off + f.width)
    farr;
  {
    name;
    fields;
    farr;
    findex;
    foffs;
    fwidths = Array.map (fun (f : field) -> f.width) farr;
    nbits = !off;
  }

let total_width d = d.nbits
let n_fields d = Array.length d.farr

let byte_size d =
  if d.nbits mod 8 <> 0 then
    invalid_arg
      (Printf.sprintf "Hdr.byte_size %s: %d bits not byte-aligned" d.name
         d.nbits)
  else d.nbits / 8

let field_index d fname = Hashtbl.find d.findex fname

let field_width d fname =
  match Hashtbl.find_opt d.findex fname with
  | Some i -> d.fwidths.(i)
  | None -> raise Not_found

let has_field d fname = Hashtbl.mem d.findex fname
let mask w = (1 lsl w) - 1

let cell_of_int64 v =
  if Int64.compare v 0L >= 0 && Int64.compare v (Int64.of_int (mask max_width)) <= 0
  then Int64.to_int v
  else -1

(* Structural recognition of IPv4-style self-checksummed headers for
   the deparser's checksum engine: a 16-bit, byte-aligned "checksum"
   field next to an "ihl" field marks a header whose checksum covers
   its own bytes (RFC 791). Transport checksums (pseudo-header +
   payload) don't qualify — they have no "ihl". *)
let self_checksum_byte d =
  match (Hashtbl.find_opt d.findex "checksum", Hashtbl.mem d.findex "ihl") with
  | Some k, true when d.fwidths.(k) = 16 && d.foffs.(k) mod 8 = 0 ->
      Some (d.foffs.(k) / 8)
  | _ -> None

let equal_decl a b =
  String.equal a.name b.name
  && List.length a.fields = List.length b.fields
  && List.for_all2
       (fun (x : field) (y : field) -> String.equal x.name y.name && x.width = y.width)
       a.fields b.fields

let pp_decl ppf d =
  Format.fprintf ppf "header %s {" d.name;
  List.iter (fun (f : field) -> Format.fprintf ppf " bit<%d> %s;" f.width f.name) d.fields;
  Format.fprintf ppf " }"

(* --- Wire access over a run of int cells: field k of the header lives
   at [cells.(pos + k)]. Standalone instances and the PHV's flat cell
   array share these two loops. --- *)

let read_fields d cells ~pos b ~bit_off =
  for k = 0 to Array.length d.fwidths - 1 do
    Array.unsafe_set cells (pos + k)
      (Netpkt.Bytes_util.get_bits_int b
         ~bit_off:(bit_off + Array.unsafe_get d.foffs k)
         ~width:(Array.unsafe_get d.fwidths k))
  done

let write_fields d cells ~pos b ~bit_off =
  for k = 0 to Array.length d.fwidths - 1 do
    Netpkt.Bytes_util.set_bits_int b
      ~bit_off:(bit_off + Array.unsafe_get d.foffs k)
      ~width:(Array.unsafe_get d.fwidths k)
      (Array.unsafe_get cells (pos + k))
  done

type inst = { idecl : decl; mutable valid : bool; vals : int array }

let inst d = { idecl = d; valid = false; vals = Array.make (n_fields d) 0 }

let decl_of i = i.idecl
let is_valid i = i.valid
let set_valid i = i.valid <- true
let set_invalid i = i.valid <- false

let get i fname =
  let k = Hashtbl.find i.idecl.findex fname in
  Bitval.of_int ~width:i.idecl.fwidths.(k) i.vals.(k)

let set i fname v =
  let k = Hashtbl.find i.idecl.findex fname in
  i.vals.(k) <- Int64.to_int (Bitval.to_int64 (Bitval.resize v i.idecl.fwidths.(k)))

let extract i b ~bit_off =
  read_fields i.idecl i.vals ~pos:0 b ~bit_off;
  i.valid <- true

let emit i b ~bit_off = write_fields i.idecl i.vals ~pos:0 b ~bit_off
