open Dejavu_core

let name = "lb"
let table_name = "lb_session"
let nf_id = Runtime.default_nf_id name

let meta_decl = P4ir.Hdr.decl "lb_meta" [ ("session_hash", 32) ]
let session_hash_ref = P4ir.Fieldref.v "lb_meta" "session_hash"

let modify_dst_action =
  P4ir.Action.make "modify_dstIp" ~params:[ ("dip", 32) ]
    [ P4ir.Action.Assign (Net_hdrs.ip_dst, P4ir.Expr.Param "dip") ]

let to_cpu_action =
  let open P4ir in
  Action.make "toCpu"
    [
      Action.Assign (Sfc_header.to_cpu_flag, Expr.const ~width:1 1);
      Action.Assign
        (Sfc_header.ctx_key 3, Expr.const ~width:8 Sfc_header.ctx_key_cpu_reason);
      Action.Assign (Sfc_header.ctx_val 3, Expr.const ~width:16 nf_id);
    ]

let make_table () =
  P4ir.Table.make ~name:table_name
    ~keys:[ { P4ir.Table.field = session_hash_ref; kind = P4ir.Table.Exact; width = 32 } ]
    ~actions:[ modify_dst_action; to_cpu_action ]
    ~default:("toCpu", []) ~max_size:65536 ()

let hash_over sport dport =
  P4ir.Expr.Hash
    ( P4ir.Expr.Crc32,
      32,
      [
        P4ir.Expr.Field Net_hdrs.ip_src;
        P4ir.Expr.Field Net_hdrs.ip_dst;
        P4ir.Expr.Field Net_hdrs.ip_proto;
        P4ir.Expr.Field sport;
        P4ir.Expr.Field dport;
      ] )

let body =
  let open P4ir in
  [
    Control.If
      ( Expr.Valid "tcp",
        [
          Control.Run
            [
              Action.Assign
                (session_hash_ref, hash_over Net_hdrs.tcp_sport Net_hdrs.tcp_dport);
            ];
        ],
        [
          Control.If
            ( Expr.Valid "udp",
              [
                Control.Run
                  [
                    Action.Assign
                      ( session_hash_ref,
                        hash_over Net_hdrs.udp_sport Net_hdrs.udp_dport );
                  ];
              ],
              [] );
        ] );
    Control.Apply table_name;
  ]

let parser_with_meta () =
  let p = Net_hdrs.base_parser ~name () in
  { p with P4ir.Parser_graph.decls = p.P4ir.Parser_graph.decls @ [ meta_decl ] }

let state_table_name = "lb.sessions"

let create () =
  Ok
    (Nf.make ~name ~description:"L4 load balancer (CRC32 session table)"
       ~parser:(parser_with_meta ()) ~tables:[ make_table () ] ~body ())

let session_hash = Netpkt.Flow.hash_five_tuple

(* The typed table entry for one session — shared by the punt handler
   and any control-plane producer pre-installing sessions. *)
let session_entry tuple backend =
  {
    P4ir.Table.priority = 0;
    patterns =
      [ P4ir.Table.M_exact (P4ir.Bitval.make ~width:32 (session_hash tuple)) ];
    action = "modify_dstIp";
    args = [ P4ir.Bitval.make ~width:32 (Netpkt.Ip4.to_int64 backend) ];
  }

(* Routed through the typed-op layer: the punt handler runs mid-batch
   against the chip that punted (a shard replica under sharding), where
   applying the op directly to the resolved handle IS the coherent
   path — replicas are rebuilt from the primary at the next batch. *)
let install_session table tuple backend =
  Ctrl.apply_table table (Ctrl.Add (session_entry tuple backend))

let pick_backend backends tuple =
  match backends with
  | [] -> invalid_arg "Lb.pick_backend: empty pool"
  | _ ->
      let h = Int64.to_int (Int64.rem (session_hash tuple) (Int64.of_int (List.length backends))) in
      List.nth backends h

(* The store-side twin of the chip session table: keyed by the raw
   5-tuple (not its hash — the ledger must name flows exactly),
   sharded by the canonical symmetric flow hash so re-sharding homes
   a session with the shard that owns its packets, and mirroring every
   eviction into the data plane as a typed [Del] — which bumps the
   table epoch and so invalidates any cached whole-chain verdict for
   the evicted flow. *)
let sessions store ~table =
  State_store.table store ~name:state_table_name ~key:State_store.Conv.five_tuple
    ~value:State_store.Conv.ip4
    ~shard_hint:Netpkt.Flow.hash_five_tuple_symmetric
    ~on_evict:(fun _reason tuple backend ->
      ignore (Ctrl.apply_table table (Ctrl.Del (session_entry tuple backend))))
    ()

let handler ?sessions ~backends ~table () : Runtime.handler =
 fun _sfc frame ->
  match Netpkt.Pkt.five_tuple_of_frame frame with
  | None -> Runtime.Consume
  | Some tuple -> (
      let backend = pick_backend backends tuple in
      (* On a ledger hit the ledger owns this session but the chip that
         punted missed it — the punt IS the miss (toCpu is the table's
         default action). That chip is a fresh shard replica, or the
         primary after a sharded batch whose replica installed the
         session and died with it: re-install the *stored* backend,
         never re-pick, so re-shards preserve every flow's assignment.
         No duplicate risk — the table missed. On a miss the ledger is
         written first: inserting may evict the LRU session, whose
         on_evict deletes its chip entry — freeing the slot before we
         install, so the chip table never transiently exceeds the
         bound. *)
      let backend =
        match sessions with
        | Some st -> State_store.find_or_insert st tuple backend
        | None -> backend
      in
      match install_session table tuple backend with
      | Ok () -> Runtime.Reinject (Runtime.clear_cpu_mark frame)
      | Error _ -> Runtime.Consume)

let reference ~sessions tuple =
  match
    List.find_opt
      (fun (t, _) -> Netpkt.Flow.equal_five_tuple t tuple)
      sessions
  with
  | Some (_, backend) -> `Rewrite backend
  | None -> `To_cpu
