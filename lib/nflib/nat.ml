open Dejavu_core

type binding = { internal : Netpkt.Ip4.t; public : Netpkt.Ip4.t }

let name = "nat"
let table_name = "nat_map"
let nf_id = Runtime.default_nf_id name

let snat_action =
  P4ir.Action.make "snat" ~params:[ ("public", 32) ]
    [ P4ir.Action.Assign (Net_hdrs.ip_src, P4ir.Expr.Param "public") ]

(* The typed table entry for one binding — shared by construction-time
   population and live control-plane ops. *)
let binding_entry b =
  let open P4ir in
  {
    Table.priority = 0;
    patterns =
      [ Table.M_exact (Bitval.make ~width:32 (Netpkt.Ip4.to_int64 b.internal)) ];
    action = "snat";
    args = [ Bitval.make ~width:32 (Netpkt.Ip4.to_int64 b.public) ];
  }

let make_table bindings =
  let open P4ir in
  let table =
    Table.make ~name:table_name
      ~keys:[ { Table.field = Net_hdrs.ip_src; kind = Table.Exact; width = 32 } ]
      ~actions:[ snat_action; Action.no_op ]
      ~default:("NoAction", []) ~max_size:8192 ()
  in
  Result.map
    (fun () -> table)
    (Table.add_entries table (List.map binding_entry bindings))

let create bindings () =
  Result.map
    (fun table ->
      Nf.make ~name ~description:"static source NAT"
        ~parser:(Net_hdrs.base_parser ~name ())
        ~tables:[ table ]
        ~body:[ P4ir.Control.Apply table_name ]
        ())
    (make_table bindings)

let reference bindings src =
  match List.find_opt (fun b -> Netpkt.Ip4.equal b.internal src) bindings with
  | Some b -> b.public
  | None -> src

(* --- dynamic SNAT: bindings allocated on first packet, punt on miss --- *)

let to_cpu_action =
  let open P4ir in
  Action.make "toCpu"
    [
      Action.Assign (Sfc_header.to_cpu_flag, Expr.const ~width:1 1);
      Action.Assign
        (Sfc_header.ctx_key 3, Expr.const ~width:8 Sfc_header.ctx_key_cpu_reason);
      Action.Assign (Sfc_header.ctx_val 3, Expr.const ~width:16 nf_id);
    ]

let make_table_dynamic ?(max_size = 8192) () =
  let open P4ir in
  Table.make ~name:table_name
    ~keys:[ { Table.field = Net_hdrs.ip_src; kind = Table.Exact; width = 32 } ]
    ~actions:[ snat_action; to_cpu_action ]
    ~default:("toCpu", []) ~max_size ()

let state_table_name = "nat.bindings"

let create_dynamic ?max_size () =
  Ok
    (Nf.make ~name ~description:"dynamic source NAT (punt-allocated bindings)"
       ~parser:(Net_hdrs.base_parser ~name ())
       ~tables:[ make_table_dynamic ?max_size () ]
       ~body:[ P4ir.Control.Apply table_name ] ())

(* Deterministic allocation: which public address an internal source
   gets must not depend on arrival order, shard count or restart
   history — it is a pure function of the address and the pool. *)
let public_of ~pool src =
  match pool with
  | [] -> invalid_arg "Nat.public_of: empty pool"
  | _ ->
      let n = List.length pool in
      let h =
        Int64.to_int
          (Int64.rem
             (Int64.logand (Netpkt.Ip4.to_int64 src) Int64.max_int)
             (Int64.of_int n))
      in
      List.nth pool h

let bindings_table store ~table =
  State_store.table store ~name:state_table_name ~key:State_store.Conv.ip4
    ~value:State_store.Conv.ip4
    ~on_evict:(fun _reason internal public ->
      ignore
        (Ctrl.apply_table table (Ctrl.Del (binding_entry { internal; public }))))
    ()

let handler ?bindings ~pool ~table () : Runtime.handler =
 fun _sfc frame ->
  match Netpkt.Pkt.five_tuple_of_frame frame with
  | None -> Runtime.Consume
  | Some tuple -> (
      let src = tuple.Netpkt.Flow.src in
      (* A ledger hit while the punting chip missed (the punt is the
         table's default action) is a fresh replica, or the primary
         after a sharded batch: re-install the stored public address.
         On a miss, ledger before chip: the insert may evict an LRU
         binding, whose hook deletes its chip entry first. *)
      let public =
        let fresh = public_of ~pool src in
        match bindings with
        | Some bt -> State_store.find_or_insert bt src fresh
        | None -> fresh
      in
      match
        Ctrl.apply_table table (Ctrl.Add (binding_entry { internal = src; public }))
      with
      | Ok () -> Runtime.Reinject (Runtime.clear_cpu_mark frame)
      | Error _ -> Runtime.Consume)
