let name = "sfc"
let byte_size = 20
let next_proto_ipv4 = 1
let n_ctx_slots = 4

let decl =
  P4ir.Hdr.decl name
    ([
       ("service_path_id", 16);
       ("service_index", 8);
       ("in_port", 9);
       ("out_port", 9);
       ("resubmit_flag", 1);
       ("recirc_flag", 1);
       ("drop_flag", 1);
       ("mirror_flag", 1);
       ("to_cpu_flag", 1);
       ("_pad", 9);
     ]
    @ List.concat_map
        (fun i ->
          [ (Printf.sprintf "ctx_key%d" i, 8); (Printf.sprintf "ctx_val%d" i, 16) ])
        [ 0; 1; 2; 3 ]
    @ [ ("next_protocol", 8) ])

(* Each field resolved once, at module load: its reference for the PHV
   view, and its position in [decl] for the wire, where the header's
   codec holds its compiled place, as a P4 target fixes every header
   field's position when it compiles the program. *)
type field = { fref : P4ir.Fieldref.t; k : int }

let field fname =
  { fref = P4ir.Fieldref.v name fname; k = P4ir.Hdr.field_index decl fname }

let f_path = field "service_path_id"
let f_index = field "service_index"
let f_in_port = field "in_port"
let f_out_port = field "out_port"
let f_resubmit = field "resubmit_flag"
let f_recirc = field "recirc_flag"
let f_drop = field "drop_flag"
let f_mirror = field "mirror_flag"
let f_to_cpu = field "to_cpu_flag"
let f_pad = field "_pad"

let f_ctx_key =
  Array.init n_ctx_slots (fun i -> field (Printf.sprintf "ctx_key%d" i))

let f_ctx_val =
  Array.init n_ctx_slots (fun i -> field (Printf.sprintf "ctx_val%d" i))

let f_next = field "next_protocol"

let service_path_id = f_path.fref
let service_index = f_index.fref
let in_port = f_in_port.fref
let out_port = f_out_port.fref
let resubmit_flag = f_resubmit.fref
let recirc_flag = f_recirc.fref
let drop_flag = f_drop.fref
let mirror_flag = f_mirror.fref
let to_cpu_flag = f_to_cpu.fref

let ctx_key i =
  if i < 0 || i >= n_ctx_slots then invalid_arg "Sfc_header.ctx_key"
  else f_ctx_key.(i).fref

let ctx_val i =
  if i < 0 || i >= n_ctx_slots then invalid_arg "Sfc_header.ctx_val"
  else f_ctx_val.(i).fref

let next_protocol = f_next.fref

let ctx_key_tenant = 1
let ctx_key_app = 2
let ctx_key_debug = 3
let ctx_key_cpu_reason = 4

type t = {
  service_path_id : int;
  service_index : int;
  in_port : int;
  out_port : int;
  resubmit : bool;
  recirc : bool;
  drop : bool;
  mirror : bool;
  to_cpu : bool;
  context : (int * int) array;
  next_protocol : int;
}

let default =
  {
    service_path_id = 0;
    service_index = 0;
    in_port = 0;
    out_port = 0;
    resubmit = false;
    recirc = false;
    drop = false;
    mirror = false;
    to_cpu = false;
    context = Array.make n_ctx_slots (0, 0);
    next_protocol = next_proto_ipv4;
  }

(* Field by field through a setter, so one routine fills the wire and a
   PHV alike. *)
let fill t set =
  let setb f b = set f (if b then 1 else 0) in
  set f_path t.service_path_id;
  set f_index t.service_index;
  set f_in_port t.in_port;
  set f_out_port t.out_port;
  setb f_resubmit t.resubmit;
  setb f_recirc t.recirc;
  setb f_drop t.drop;
  setb f_mirror t.mirror;
  setb f_to_cpu t.to_cpu;
  Array.iteri
    (fun i (k, v) ->
      set f_ctx_key.(i) k;
      set f_ctx_val.(i) v)
    t.context;
  set f_next t.next_protocol

let get_wire b ~off f = P4ir.Hdr.get_wire decl f.k b ~off
let set_wire b ~off f v = P4ir.Hdr.set_wire decl f.k b ~off v

(* [_pad] is never written, so it stays zero. *)
let encode t =
  let b = Bytes.make byte_size '\000' in
  fill t (set_wire b ~off:0);
  b

let of_getter get =
  let getb f = get f = 1 in
  {
    service_path_id = get f_path;
    service_index = get f_index;
    in_port = get f_in_port;
    out_port = get f_out_port;
    resubmit = getb f_resubmit;
    recirc = getb f_recirc;
    drop = getb f_drop;
    mirror = getb f_mirror;
    to_cpu = getb f_to_cpu;
    context =
      Array.init n_ctx_slots (fun i -> (get f_ctx_key.(i), get f_ctx_val.(i)));
    next_protocol = get f_next;
  }

let decode b ~off =
  if off < 0 then Error "Sfc_header.decode: negative offset"
  else if Bytes.length b < off + byte_size then
    Error "Sfc_header.decode: truncated"
  else Ok (of_getter (get_wire b ~off))

let decode_path b ~off =
  (get_wire b ~off f_path, get_wire b ~off f_index)

let clear_cpu_mark b ~off =
  set_wire b ~off f_to_cpu 0;
  set_wire b ~off f_pad 0;
  for i = 0 to n_ctx_slots - 1 do
    if get_wire b ~off f_ctx_key.(i) = ctx_key_cpu_reason then begin
      set_wire b ~off f_ctx_key.(i) 0;
      set_wire b ~off f_ctx_val.(i) 0
    end
  done

let of_phv phv =
  if P4ir.Phv.is_valid phv name then
    Some (of_getter (fun f -> P4ir.Phv.get_int phv f.fref))
  else None

let to_phv t phv =
  P4ir.Phv.add_decl phv decl;
  fill t (fun f v -> P4ir.Phv.set_int phv f.fref v);
  P4ir.Phv.set_valid phv name

let find_context t key =
  Array.fold_left
    (fun acc (k, v) -> if acc = None && k = key && k <> 0 then Some v else acc)
    None t.context

let equal a b =
  a.service_path_id = b.service_path_id
  && a.service_index = b.service_index
  && a.in_port = b.in_port && a.out_port = b.out_port
  && a.resubmit = b.resubmit && a.recirc = b.recirc && a.drop = b.drop
  && a.mirror = b.mirror && a.to_cpu = b.to_cpu
  && a.context = b.context
  && a.next_protocol = b.next_protocol

let pp ppf t =
  Format.fprintf ppf
    "sfc{path=%d idx=%d in=%d out=%d flags=%s%s%s%s%s next=%d}"
    t.service_path_id t.service_index t.in_port t.out_port
    (if t.resubmit then "R" else "-")
    (if t.recirc then "C" else "-")
    (if t.drop then "D" else "-")
    (if t.mirror then "M" else "-")
    (if t.to_cpu then "U" else "-")
    t.next_protocol
