open Dejavu_core

type budget = { tenant : int; limit : int }

let name = "rate_limiter"
let table_name = "rl_budgets"
let register_name = "rl_counters"
let register_size = 1024

let meta_decl =
  P4ir.Hdr.decl "rl_meta" [ ("count", 32); ("over", 1); ("limited", 1) ]

let count_ref = P4ir.Fieldref.v "rl_meta" "count"
let over_ref = P4ir.Fieldref.v "rl_meta" "over"
let limited_ref = P4ir.Fieldref.v "rl_meta" "limited"
let tenant_ref = Sfc_header.ctx_val 0

(* Read-increment-compare in one action, with the budget as action data:
   over = (count >= limit); counters[tenant] = count + 1. *)
let enforce_action =
  let open P4ir in
  Action.make "enforce" ~params:[ ("limit", 32) ]
    [
      Action.Reg_read (count_ref, register_name, Expr.Field tenant_ref);
      Action.Assign (over_ref, Expr.Bin (Expr.Ge, Expr.Field count_ref, Expr.Param "limit"));
      Action.Reg_write
        ( register_name,
          Expr.Field tenant_ref,
          Expr.(Field count_ref + const ~width:32 1) );
      Action.Assign (limited_ref, Expr.const ~width:1 1);
    ]

let unlimited_action =
  P4ir.Action.make "unlimited"
    [ P4ir.Action.Assign (limited_ref, P4ir.Expr.const ~width:1 0) ]

let make_table budgets =
  let open P4ir in
  let table =
    Table.make ~name:table_name
      ~keys:[ { Table.field = tenant_ref; kind = Table.Exact; width = 16 } ]
      ~actions:[ enforce_action; unlimited_action ]
      ~default:("unlimited", []) ~max_size:1024 ()
  in
  Result.map
    (fun () -> table)
    (Table.add_entries table
       (List.map
          (fun b ->
            {
              Table.priority = 0;
              patterns = [ Table.M_exact (Bitval.of_int ~width:16 b.tenant) ];
              action = "enforce";
              args = [ Bitval.of_int ~width:32 b.limit ];
            })
          budgets))

let parser_with_meta () =
  let p = Net_hdrs.base_parser ~name () in
  { p with P4ir.Parser_graph.decls = p.P4ir.Parser_graph.decls @ [ meta_decl ] }

let body =
  let open P4ir in
  [
    Control.Apply table_name;
    Control.If
      ( Expr.(Bin (Eq, Field over_ref, const ~width:1 1)),
        [
          Control.Run
            [ Action.Assign (Sfc_header.drop_flag, Expr.const ~width:1 1) ];
        ],
        [] );
  ]

let create budgets () =
  Result.map
    (fun table ->
      Nf.make ~name ~description:"per-tenant packet-budget rate limiter"
        ~parser:(parser_with_meta ())
        ~tables:[ table ]
        ~registers:
          [ P4ir.Register.make ~name:register_name ~size:register_size ~width:32 ]
        ~body ())
    (make_table budgets)

let reset_window compiled =
  Option.iter P4ir.Register.clear (Compiler.find_register compiled register_name)

let count_of compiled ~tenant =
  match Compiler.find_register compiled register_name with
  | None -> 0
  | Some reg ->
      P4ir.Bitval.to_int
        (P4ir.Register.read reg (tenant land P4ir.Register.index_mask reg))

let state_table_name = "rl.counts"

(* The per-tenant window counters used to live in a caller-owned
   Hashtbl that nothing ever aged — every tenant id seen once stayed
   forever. On the store they are capacity-bounded and TTL-swept: a
   tenant idle for a window simply expires, which is also the correct
   semantics (an expired counter restarts from zero, exactly like the
   data plane's cleared register). *)
let counts store =
  State_store.table store ~name:state_table_name ~key:State_store.Conv.int
    ~value:State_store.Conv.int ()

let reference budgets ~counts ~tenant =
  match List.find_opt (fun b -> b.tenant = tenant) budgets with
  | None -> `Pass
  | Some b ->
      let current = Option.value ~default:0 (State_store.find counts tenant) in
      State_store.insert counts tenant (current + 1);
      if current >= b.limit then `Drop else `Pass
