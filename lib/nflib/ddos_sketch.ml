open Dejavu_core

let name = "ddos_sketch"
let rows = 3
let row_size = 4096
let row_register i = Printf.sprintf "cms_row%d" i

let meta_decl =
  P4ir.Hdr.decl "cms_meta" [ ("c0", 32); ("c1", 32); ("c2", 32); ("est", 32) ]

let c_ref i = P4ir.Fieldref.v "cms_meta" (Printf.sprintf "c%d" i)
let est_ref = P4ir.Fieldref.v "cms_meta" "est"

(* Three independent index hashes over the source address. CRC32 and
   CRC16 are real hardware hash engines; the third folds the address
   with a multiplicative mix. *)
let row_hash i =
  let open P4ir.Expr in
  match i with
  | 0 -> Hash (Crc32, 32, [ Field Net_hdrs.ip_src ])
  | 1 -> Hash (Crc16, 32, [ Field Net_hdrs.ip_src ])
  | _ ->
      Bin
        ( BXor,
          Field Net_hdrs.ip_src,
          Bin (Shr, Bin (Mul, Field Net_hdrs.ip_src, const ~width:32 0x9E3779B1), const ~width:32 16) )

let update_prims =
  let open P4ir in
  List.concat_map
    (fun i ->
      [
        Action.Reg_read (c_ref i, row_register i, row_hash i);
        Action.Reg_write
          ( row_register i,
            row_hash i,
            Expr.(Field (c_ref i) + const ~width:32 1) );
      ])
    [ 0; 1; 2 ]

let body ~block ~threshold =
  let pre_increment_threshold = threshold - 1 in
  let open P4ir in
  let flag_prims =
    if block then
      [ Action.Assign (Sfc_header.drop_flag, Expr.const ~width:1 1) ]
    else
      [
        Action.Assign (Sfc_header.mirror_flag, Expr.const ~width:1 1);
        Action.Assign
          (Sfc_header.ctx_key 2, Expr.const ~width:8 Sfc_header.ctx_key_debug);
        Action.Assign (Sfc_header.ctx_val 2, Expr.Field est_ref);
      ]
  in
  [
    Control.Run (update_prims @ [ Action.Assign (est_ref, Expr.Field (c_ref 0)) ]);
    (* est = min(c0, c1, c2); the counts just incremented, so compare
       against the post-increment values. *)
    Control.If
      ( Expr.(Bin (Lt, Field (c_ref 1), Field est_ref)),
        [ Control.Run [ Action.Assign (est_ref, Expr.Field (c_ref 1)) ] ],
        [] );
    Control.If
      ( Expr.(Bin (Lt, Field (c_ref 2), Field est_ref)),
        [ Control.Run [ Action.Assign (est_ref, Expr.Field (c_ref 2)) ] ],
        [] );
    (* The meta counts are the pre-increment reads, so est equals the
       source's count *before* this packet: the threshold-th packet is
       the first with est >= threshold - 1. *)
    Control.If
      ( Expr.(Bin (Ge, Field est_ref, const ~width:32 pre_increment_threshold)),
        [ Control.Run flag_prims ],
        [] );
  ]

let parser_with_meta () =
  let p = Net_hdrs.base_parser ~name () in
  { p with P4ir.Parser_graph.decls = p.P4ir.Parser_graph.decls @ [ meta_decl ] }

let create ?(block = false) ~threshold () =
  if threshold < 1 then Error "Ddos_sketch.create: threshold must be >= 1"
  else
    Ok
      (Nf.make ~name ~description:"count-min sketch heavy-source detector"
         ~parser:(parser_with_meta ()) ~tables:[]
         ~registers:
           (List.init rows (fun i ->
                P4ir.Register.make ~name:(row_register i) ~size:row_size
                  ~width:32))
         ~body:(body ~block ~threshold) ())

let reset compiled =
  List.iter
    (fun i ->
      Option.iter P4ir.Register.clear
        (Compiler.find_register compiled (row_register i)))
    (List.init rows Fun.id)

(* Mirror the data plane's hashing for control-plane queries. *)
let index_of i src =
  let phv = P4ir.Phv.create [ Net_hdrs.ipv4 ] in
  P4ir.Phv.set_valid phv "ipv4";
  P4ir.Phv.set phv Net_hdrs.ip_src
    (P4ir.Bitval.make ~width:32 (Netpkt.Ip4.to_int64 src));
  P4ir.Bitval.to_int (P4ir.Expr.eval { P4ir.Expr.phv; params = [] } (row_hash i))

let estimate compiled src =
  let est = ref max_int in
  List.iter
    (fun i ->
      match Compiler.find_register compiled (row_register i) with
      | None -> ()
      | Some reg ->
          let idx = index_of i src land P4ir.Register.index_mask reg in
          est := min !est (P4ir.Bitval.to_int (P4ir.Register.read reg idx)))
    (List.init rows Fun.id);
  if !est = max_int then 0 else !est

let reference_estimate_lower_bound ~true_count ~estimate = estimate >= true_count
