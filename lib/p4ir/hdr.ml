type field = { name : string; width : int }

let max_width = Netpkt.Bytes_util.max_int_width

(* Everything a per-packet operation needs is precomputed here, once per
   declaration: fields as an array, a name -> position table, per-field
   bit offsets and widths for the bit loop, and the wire codec's field
   places (below). *)
type decl = {
  name : string;
  fields : field list;
  farr : field array;
  findex : (string, int) Hashtbl.t;
  foffs : int array;
  fwidths : int array;
  nbits : int;
  places : int array;
  span : int;
  lead : int;
}

(* --- The wire codec's compile step. A field's place is an 8-byte
   big-endian window that holds all of its bits: the window's first
   byte, the right shift that brings the field down to bit 0 and the
   field's width, packed as [(byte lsl 12) lor (shift lsl 6) lor width].
   The window starts at the field's first byte, or 8 bytes before the
   header's end when that is earlier, so in a header of [span >= 8]
   bytes every window lies inside the header. A shorter header's
   windows end at its last byte and reach [lead = 8 - span] bytes
   before its first; [byte] counts from there. Only a field whose bits
   span 9 bytes (58-62 bits starting 3 or more bits into a byte) fits
   no window: its place is [-1], and the bit loop reads it. --- *)

let place ~span ~lead ~bit ~width =
  let byte = min (bit lsr 3) (span - 8) in
  let r = bit - (8 * byte) in
  if r + width > 64 then -1
  else ((byte + lead) lsl 12) lor ((64 - r - width) lsl 6) lor width

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
  let fwidths = Array.map (fun (f : field) -> f.width) farr in
  let span = (!off + 7) / 8 in
  let lead = max 0 (8 - span) in
  {
    name;
    fields;
    farr;
    findex;
    foffs;
    fwidths;
    nbits = !off;
    places =
      Array.mapi (fun k width -> place ~span ~lead ~bit:foffs.(k) ~width) fwidths;
    span;
    lead;
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
   at [cells.(pos + k)]. The bit loop, one range-checked
   [Bytes_util] access per field: the Reference parser and deparser,
   and standalone instances, read and write through it. --- *)

(* The one check that lets the loops below index [cells] unchecked. *)
let check_cells d cells ~pos =
  let n = Array.length d.fwidths in
  if pos < 0 || pos + n > Array.length cells then
    invalid_arg
      (Printf.sprintf "Hdr: cells [%d,%d) of %s exceed %d" pos (pos + n) d.name
         (Array.length cells))

let read_fields d cells ~pos b ~bit_off =
  check_cells d cells ~pos;
  for k = 0 to Array.length d.fwidths - 1 do
    Array.unsafe_set cells (pos + k)
      (Netpkt.Bytes_util.get_bits_int b
         ~bit_off:(bit_off + Array.unsafe_get d.foffs k)
         ~width:(Array.unsafe_get d.fwidths k))
  done

let write_fields d cells ~pos b ~bit_off =
  check_cells d cells ~pos;
  for k = 0 to Array.length d.fwidths - 1 do
    Netpkt.Bytes_util.set_bits_int b
      ~bit_off:(bit_off + Array.unsafe_get d.foffs k)
      ~width:(Array.unsafe_get d.fwidths k)
      (Array.unsafe_get cells (pos + k))
  done

(* --- The wire codec: every Fast-mode read and write. One check per
   header, [lead <= off <= length - span], proves every
   window inside the buffer; each field is then a load of its window,
   a shift and a mask, on unboxed [int64]s. A header that fails the
   check (one shorter than 8 bytes near the buffer's start, or one out
   of range) takes the bit loop, which raises the same
   [Invalid_argument] for a range the buffer does not hold. --- *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] load b i = if Sys.big_endian then get64u b i else bswap64 (get64u b i)

let[@inline] store b i w =
  if Sys.big_endian then set64u b i w else set64u b i (bswap64 w)

let[@inline] fits d b ~off = off >= d.lead && off <= Bytes.length b - d.span

(* Field [p] of the windows based at byte [base]. *)
let[@inline] get_place b base p =
  Int64.to_int
    (Int64.shift_right_logical (load b (base + (p lsr 12))) ((p lsr 6) land 63))
  land mask (p land 63)

(* Only the field's bits change: the window's other bits are written
   back as they were read. *)
let[@inline] set_place b base p v =
  let i = base + (p lsr 12) and sh = (p lsr 6) land 63 in
  let m = Int64.shift_left (Int64.of_int (mask (p land 63))) sh in
  store b i
    (Int64.logor
       (Int64.logand (load b i) (Int64.lognot m))
       (Int64.logand (Int64.shift_left (Int64.of_int v) sh) m))

let read_wire d cells ~pos b ~off =
  check_cells d cells ~pos;
  if fits d b ~off then begin
    let base = off - d.lead in
    for k = 0 to Array.length d.places - 1 do
      let p = Array.unsafe_get d.places k in
      Array.unsafe_set cells (pos + k)
        (if p >= 0 then get_place b base p
         else
           Netpkt.Bytes_util.get_bits_int b
             ~bit_off:((8 * off) + Array.unsafe_get d.foffs k)
             ~width:(Array.unsafe_get d.fwidths k))
    done
  end
  else read_fields d cells ~pos b ~bit_off:(8 * off)

let write_wire d cells ~pos b ~off =
  check_cells d cells ~pos;
  if fits d b ~off then begin
    let base = off - d.lead in
    for k = 0 to Array.length d.places - 1 do
      let p = Array.unsafe_get d.places k in
      let v = Array.unsafe_get cells (pos + k) in
      if p >= 0 then set_place b base p v
      else
        Netpkt.Bytes_util.set_bits_int b
          ~bit_off:((8 * off) + Array.unsafe_get d.foffs k)
          ~width:(Array.unsafe_get d.fwidths k) v
    done
  end
  else write_fields d cells ~pos b ~bit_off:(8 * off)

let get_wire d k b ~off =
  let p = d.places.(k) in
  if p >= 0 && fits d b ~off then get_place b (off - d.lead) p
  else
    Netpkt.Bytes_util.get_bits_int b ~bit_off:((8 * off) + d.foffs.(k))
      ~width:d.fwidths.(k)

let set_wire d k b ~off v =
  let p = d.places.(k) in
  if p >= 0 && fits d b ~off then set_place b (off - d.lead) p v
  else
    Netpkt.Bytes_util.set_bits_int b ~bit_off:((8 * off) + d.foffs.(k))
      ~width:d.fwidths.(k) v

type inst = { idecl : decl; vals : int array }

let inst d = { idecl = d; vals = Array.make (n_fields d) 0 }

let get i fname =
  let k = Hashtbl.find i.idecl.findex fname in
  Bitval.of_int ~width:i.idecl.fwidths.(k) i.vals.(k)

let set i fname v =
  let k = Hashtbl.find i.idecl.findex fname in
  i.vals.(k) <- Int64.to_int (Bitval.to_int64 (Bitval.resize v i.idecl.fwidths.(k)))

let extract i b ~bit_off = read_fields i.idecl i.vals ~pos:0 b ~bit_off

let emit i b ~bit_off = write_fields i.idecl i.vals ~pos:0 b ~bit_off
