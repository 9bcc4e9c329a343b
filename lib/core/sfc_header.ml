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

let r field = P4ir.Fieldref.v name field
let service_path_id = r "service_path_id"
let service_index = r "service_index"
let in_port = r "in_port"
let out_port = r "out_port"
let resubmit_flag = r "resubmit_flag"
let recirc_flag = r "recirc_flag"
let drop_flag = r "drop_flag"
let mirror_flag = r "mirror_flag"
let to_cpu_flag = r "to_cpu_flag"

let ctx_key i =
  if i < 0 || i >= n_ctx_slots then invalid_arg "Sfc_header.ctx_key"
  else r (Printf.sprintf "ctx_key%d" i)

let ctx_val i =
  if i < 0 || i >= n_ctx_slots then invalid_arg "Sfc_header.ctx_val"
  else r (Printf.sprintf "ctx_val%d" i)

let next_protocol = r "next_protocol"

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

(* Field by field through a setter, so one routine fills a standalone
   instance and a PHV alike. *)
let fill t set =
  let setb f b = set f (if b then 1 else 0) in
  set "service_path_id" t.service_path_id;
  set "service_index" t.service_index;
  set "in_port" t.in_port;
  set "out_port" t.out_port;
  setb "resubmit_flag" t.resubmit;
  setb "recirc_flag" t.recirc;
  setb "drop_flag" t.drop;
  setb "mirror_flag" t.mirror;
  setb "to_cpu_flag" t.to_cpu;
  Array.iteri
    (fun i (k, v) ->
      set (Printf.sprintf "ctx_key%d" i) k;
      set (Printf.sprintf "ctx_val%d" i) v)
    t.context;
  set "next_protocol" t.next_protocol

let fill_inst t inst =
  fill t (fun f v -> P4ir.Hdr.set inst f (P4ir.Bitval.of_int ~width:64 v));
  P4ir.Hdr.set_valid inst

let encode t =
  let inst = P4ir.Hdr.inst decl in
  fill_inst t inst;
  let b = Bytes.make byte_size '\000' in
  P4ir.Hdr.emit inst b ~bit_off:0;
  b

let of_getter get =
  let getb f = get f = 1 in
  {
    service_path_id = get "service_path_id";
    service_index = get "service_index";
    in_port = get "in_port";
    out_port = get "out_port";
    resubmit = getb "resubmit_flag";
    recirc = getb "recirc_flag";
    drop = getb "drop_flag";
    mirror = getb "mirror_flag";
    to_cpu = getb "to_cpu_flag";
    context =
      Array.init n_ctx_slots (fun i ->
          (get (Printf.sprintf "ctx_key%d" i), get (Printf.sprintf "ctx_val%d" i)));
    next_protocol = get "next_protocol";
  }

let of_inst inst = of_getter (fun f -> P4ir.Bitval.to_int (P4ir.Hdr.get inst f))

let decode b ~off =
  if Bytes.length b < off + byte_size then Error "Sfc_header.decode: truncated"
  else begin
    let inst = P4ir.Hdr.inst decl in
    P4ir.Hdr.extract inst b ~bit_off:(8 * off);
    Ok (of_inst inst)
  end

let of_phv phv =
  if P4ir.Phv.is_valid phv name then
    Some (of_getter (fun f -> P4ir.Phv.get_int phv (P4ir.Fieldref.v name f)))
  else None

let to_phv t phv =
  P4ir.Phv.add_decl phv decl;
  fill t (fun f v -> P4ir.Phv.set_int phv (P4ir.Fieldref.v name f) v);
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
