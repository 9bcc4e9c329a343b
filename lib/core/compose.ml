type built = {
  program : P4ir.Program.t;
  framework_tables : string list;
  check_next_of : (string * string) list;
  branching_table : string option;
  framework_gateways : int;
}

let nf_table_name ~nf table = nf ^ "__" ^ table
let check_next_name nf = "dv_check_next__" ^ nf
let check_flags_name tag = "dv_check_flags__" ^ tag
let branching_name = "dv_branching"
let proceed_action = "dv_proceed"
let act_to_out = "dv_to_out"
let act_to_port = "dv_to_port"
let act_resubmit = "dv_resubmit"
let act_to_cpu = "dv_to_cpu"

let ( let* ) = Result.bind

let exact field width = { P4ir.Table.field; kind = P4ir.Table.Exact; width }

let make_check_next nf =
  P4ir.Table.make ~name:(check_next_name nf)
    ~keys:[ exact Sfc_header.service_path_id 16; exact Sfc_header.service_index 8 ]
    ~actions:
      [
        P4ir.Action.make proceed_action [ P4ir.Action.No_op ];
        P4ir.Action.make "dv_skip" [ P4ir.Action.No_op ];
      ]
    ~default:("dv_skip", []) ~max_size:64 ()

let make_check_flags tag =
  let translate =
    P4ir.Action.make "dv_translate"
      [
        P4ir.Action.Assign
          (Asic.Stdmeta.drop_flag, P4ir.Expr.Field Sfc_header.drop_flag);
        P4ir.Action.Assign
          (Asic.Stdmeta.to_cpu_flag, P4ir.Expr.Field Sfc_header.to_cpu_flag);
        P4ir.Action.Assign
          (Asic.Stdmeta.mirror_flag, P4ir.Expr.Field Sfc_header.mirror_flag);
      ]
  in
  P4ir.Table.make ~name:(check_flags_name tag) ~keys:[]
    ~actions:[ translate ] ~default:("dv_translate", []) ~max_size:8 ()

let make_branching () =
  let to_out =
    P4ir.Action.make act_to_out ~params:[ ("port", 9) ]
      [
        P4ir.Action.Assign (Asic.Stdmeta.egress_spec, P4ir.Expr.Param "port");
        P4ir.Action.Assign (Sfc_header.out_port, P4ir.Expr.Param "port");
      ]
  in
  let to_port =
    P4ir.Action.make act_to_port ~params:[ ("port", 9) ]
      [ P4ir.Action.Assign (Asic.Stdmeta.egress_spec, P4ir.Expr.Param "port") ]
  in
  let resubmit =
    P4ir.Action.make act_resubmit
      [ P4ir.Action.Assign (Asic.Stdmeta.resubmit_flag, P4ir.Expr.const ~width:1 1) ]
  in
  let to_cpu =
    P4ir.Action.make act_to_cpu
      [ P4ir.Action.Assign (Asic.Stdmeta.to_cpu_flag, P4ir.Expr.const ~width:1 1) ]
  in
  P4ir.Table.make ~name:branching_name
    ~keys:[ exact Sfc_header.service_path_id 16; exact Sfc_header.service_index 8 ]
    ~actions:[ to_out; to_port; resubmit; to_cpu ]
    ~default:(act_to_cpu, []) ~max_size:256 ()

(* The framework bumps the service index after each NF — unless the NF
   punted the packet to the CPU, in which case the index must keep
   pointing at it so processing resumes there after reinjection. *)
let bump_index =
  P4ir.Control.If
    ( P4ir.Expr.(Bin (Eq, Field Sfc_header.to_cpu_flag, const ~width:1 0)),
      [
        P4ir.Control.Run
          [
            P4ir.Action.Assign
              ( Sfc_header.service_index,
                P4ir.Expr.(Field Sfc_header.service_index + const ~width:8 1) );
          ];
      ],
      [] )

(* Rename an NF's tables and body to the composed namespace. *)
let renamed_nf (nf : Nf.t) =
  let rename = nf_table_name ~nf:nf.Nf.name in
  let tables = List.map (fun t -> P4ir.Table.rename t (rename (P4ir.Table.name t))) nf.Nf.tables in
  let body =
    (P4ir.Control.map_tables rename (P4ir.Control.make nf.Nf.name nf.Nf.body))
      .P4ir.Control.body
  in
  (tables, body)

(* The block for one sequentially-composed NF. *)
let seq_nf_block (nf : Nf.t) body flags_table =
  match nf.Nf.gate with
  | Nf.On_missing_sfc ->
      [
        P4ir.Control.If
          ( P4ir.Expr.Un (P4ir.Expr.LNot, P4ir.Expr.Valid Sfc_header.name),
            [ P4ir.Control.Label (nf.Nf.name, body); bump_index ],
            [] );
        P4ir.Control.Apply (P4ir.Table.name flags_table);
      ]
  | Nf.Sfc_indexed ->
      [
        P4ir.Control.Apply_switch
          ( check_next_name nf.Nf.name,
            [
              ( proceed_action,
                [ P4ir.Control.Label (nf.Nf.name, body); bump_index ] );
            ],
            [] );
        P4ir.Control.Apply (P4ir.Table.name flags_table);
      ]

(* Parallel composition: if/else-if ladder, one shared flags check. A
   classifier-style member becomes the no-SFC branch wrapping the whole
   ladder — a packet either has no SFC header yet (classifier runs) or
   matches at most one check_nextNF gate. *)
let par_group_block nfs_with_bodies flags_table =
  let classifiers, indexed =
    List.partition
      (fun ((nf : Nf.t), _) -> nf.Nf.gate = Nf.On_missing_sfc)
      nfs_with_bodies
  in
  let rec ladder = function
    | [] -> []
    | ((nf : Nf.t), body) :: rest ->
        [
          P4ir.Control.Apply_switch
            ( check_next_name nf.Nf.name,
              [
                ( proceed_action,
                  [ P4ir.Control.Label (nf.Nf.name, body); bump_index ] );
              ],
              ladder rest );
        ]
  in
  let wrapped =
    List.fold_left
      (fun block ((nf : Nf.t), body) ->
        [
          P4ir.Control.If
            ( P4ir.Expr.Un (P4ir.Expr.LNot, P4ir.Expr.Valid Sfc_header.name),
              [ P4ir.Control.Label (nf.Nf.name, body); bump_index ],
              block );
        ])
      (ladder indexed) classifiers
  in
  wrapped @ [ P4ir.Control.Apply (P4ir.Table.name flags_table) ]

let strip_block =
  let open P4ir.Expr in
  let sfc_present = Valid Sfc_header.name in
  let at_exit =
    Bin
      ( LAnd,
        Bin (Eq, Field Sfc_header.out_port, Field Asic.Stdmeta.egress_port),
        Bin (Neq, Field Sfc_header.out_port, const ~width:9 0) )
  in
  (* A packet that is being dropped or punted keeps its SFC header: the
     control plane needs the path id, index and CPU-reason context. *)
  let at_exit =
    Bin
      ( LAnd,
        at_exit,
        Bin
          ( LAnd,
            Bin (Eq, Field Sfc_header.to_cpu_flag, const ~width:1 0),
            Bin (Eq, Field Sfc_header.drop_flag, const ~width:1 0) ) )
  in
  [
    P4ir.Control.If
      ( Bin (LAnd, sfc_present, at_exit),
        [
          P4ir.Control.If
            ( Bin
                ( Eq,
                  Field Sfc_header.next_protocol,
                  const ~width:8 Sfc_header.next_proto_ipv4 ),
              [
                P4ir.Control.Run
                  [
                    P4ir.Action.Assign
                      (Net_hdrs.eth_ethertype, const ~width:16 Net_hdrs.ethertype_ipv4);
                  ];
              ],
              [
                P4ir.Control.If
                  ( Bin (Eq, Field Sfc_header.next_protocol, const ~width:8 2),
                    [
                      P4ir.Control.Run
                        [
                          P4ir.Action.Assign
                            ( Net_hdrs.eth_ethertype,
                              const ~width:16 Net_hdrs.ethertype_vlan );
                        ];
                    ],
                    [] );
              ] );
          P4ir.Control.Run [ P4ir.Action.Set_invalid Sfc_header.name ];
        ],
        [] );
  ]

let build ~generic_parser ~id ~layout ~nf_of =
  let* nfs =
    List.fold_left
      (fun acc name ->
        let* l = acc in
        let* nf = nf_of name in
        Ok (l @ [ nf ]))
      (Ok [])
      (Layout.nfs_of_pipelet layout)
  in
  let renamed = List.map (fun nf -> (nf, renamed_nf nf)) nfs in
  let nf_tables = List.concat_map (fun (_, (tables, _)) -> tables) renamed in
  (* Registers keep their NF-chosen (globally unique) names. *)
  let nf_registers = List.concat_map (fun (nf : Nf.t) -> nf.Nf.registers) nfs in
  let* () =
    let names = List.map P4ir.Register.name nf_registers in
    if List.length (List.sort_uniq String.compare names) <> List.length names
    then
      Error
        (Printf.sprintf "compose %s: register name collision between NFs"
           (Format.asprintf "%a" Asic.Pipelet.pp_id id))
    else Ok ()
  in
  let body_of name =
    let _, (_, body) =
      List.find (fun ((nf : Nf.t), _) -> String.equal nf.Nf.name name) renamed
    in
    body
  in
  let nf_by_name name =
    List.find (fun (nf : Nf.t) -> String.equal nf.Nf.name name) nfs
  in
  (* Framework tables. *)
  let check_next_tables =
    List.filter_map
      (fun (nf : Nf.t) ->
        match nf.Nf.gate with
        | Nf.Sfc_indexed -> Some (nf.Nf.name, make_check_next nf.Nf.name)
        | Nf.On_missing_sfc -> None)
      nfs
  in
  let flags_tables = ref [] in
  let fresh_flags tag =
    let t = make_check_flags tag in
    flags_tables := !flags_tables @ [ t ];
    t
  in
  let* group_blocks =
    List.fold_left
      (fun acc (gi, group) ->
        let* blocks = acc in
        match group with
        | Layout.Seq names ->
            let* block =
              List.fold_left
                (fun acc name ->
                  let* b = acc in
                  let nf = nf_by_name name in
                  let flags = fresh_flags name in
                  Ok (b @ seq_nf_block nf (body_of name) flags))
                (Ok []) names
            in
            Ok (blocks @ block)
        | Layout.Par names ->
            let flags = fresh_flags (Printf.sprintf "g%d" gi) in
            let members = List.map (fun n -> (nf_by_name n, body_of n)) names in
            Ok (blocks @ par_group_block members flags))
      (Ok [])
      (List.mapi (fun i g -> (i, g)) layout)
  in
  let is_ingress = id.Asic.Pipelet.kind = Asic.Pipelet.Ingress in
  let branching = if is_ingress then Some (make_branching ()) else None in
  let tail =
    if is_ingress then [ P4ir.Control.Apply branching_name ] else strip_block
  in
  let framework_table_list =
    List.map snd check_next_tables
    @ !flags_tables
    @ (match branching with Some b -> [ b ] | None -> [])
  in
  let tables = nf_tables @ framework_table_list in
  let name =
    Printf.sprintf "%s_pipe%d"
      (if is_ingress then "ingress" else "egress")
      id.Asic.Pipelet.pipeline
  in
  let deparse_order =
    List.filter
      (fun h ->
        List.exists
          (fun (d : P4ir.Hdr.decl) -> String.equal d.P4ir.Hdr.name h)
          generic_parser.P4ir.Parser_graph.decls)
      Net_hdrs.deparse_order
  in
  let control = P4ir.Control.make (name ^ "_control") (group_blocks @ tail) in
  let program =
    P4ir.Program.make ~name ~registers:nf_registers ~parser:generic_parser ~tables
      ~control ~deparse_order ()
  in
  (* The framework's gateways are the composed control's outside the
     [Label] blocks, each of which holds one NF's body exactly once. *)
  let nf_gateways =
    List.fold_left
      (fun acc nf -> acc + P4ir.Control.gateway_count (Nf.control nf))
      0 nfs
  in
  let* () = P4ir.Program.validate program in
  Ok
    {
      program;
      framework_tables = List.map P4ir.Table.name framework_table_list;
      check_next_of =
        List.map (fun (nf, t) -> (nf, P4ir.Table.name t)) check_next_tables;
      branching_table = Option.map P4ir.Table.name branching;
      framework_gateways = P4ir.Control.gateway_count control - nf_gateways;
    }
