(* The two deployments the workloads run on, and their timed set-up:
   compile, FIB install, runtime creation, CPU handlers. *)

open Dejavu_core

type kind =
  | Fig2  (** the Fig. 2 edge-cloud policy (red/orange/green) *)
  | Lb_nat  (** classifier -> lb -> nat -> router with a dynamic NAT *)

let lb_nat_capacity = 16_384
let lb_nat_state = Runtime.Engine.Bounded { capacity = lb_nat_capacity; ttl_ns = 0L }

(* 512 /24s and 32 /20s in 172.16.0.0/12: production FIB scale, none
   covering the workloads' 10.0.0.0/16 destinations, so outputs do not
   depend on them but every router lookup searches them. *)
let fib_ops =
  let entry ~prefix_len addr =
    Ctrl.Table
      ( Nflib.Catalog.routes_table_name,
        Ctrl.Add
          {
            P4ir.Table.priority = 0;
            patterns =
              [ P4ir.Table.M_lpm { value = P4ir.Bitval.of_int ~width:32 addr; prefix_len } ];
            action = "route";
            args =
              [
                P4ir.Bitval.of_int ~width:48 0x020000aa0001;
                P4ir.Bitval.of_int ~width:48 0x0200000000fe;
              ];
          } )
  in
  List.init 512 (fun i ->
      entry ~prefix_len:24 ((172 lsl 24) lor ((16 + (i lsr 8)) lsl 16) lor ((i land 0xff) lsl 8)))
  @ List.init 32 (fun i ->
        entry ~prefix_len:20 ((172 lsl 24) lor ((24 + (i lsr 4)) lsl 16) lor ((i land 0xf) lsl 12)))

let fib_prefixes = List.length fib_ops + 2 (* plus the deployment's two routes *)

let input = function
  | Fig2 -> Nflib.Catalog.edge_cloud_input ()
  | Lb_nat ->
      let registry =
        ( "classifier",
          Nflib.Classifier.create
            [
              {
                Nflib.Classifier.dst_prefix = Netpkt.Ip4.prefix_of_string_exn "10.0.1.0/24";
                proto = None;
                path_id = Nflib.Catalog.path_red;
                tenant = 1;
              };
            ] )
        :: (Nflib.Nat.name, Nflib.Nat.create_dynamic ~max_size:lb_nat_capacity)
        :: List.filter
             (fun (n, _) -> n <> "classifier" && n <> Nflib.Nat.name)
             (Nflib.Catalog.registry ())
      in
      Compiler.default_input ~registry ~strategy:Placement.Greedy
        ~chains:
          [
            Chain.make ~path_id:Nflib.Catalog.path_red ~name:"stateful"
              ~nfs:[ "classifier"; "lb"; "nat"; "router" ]
              ~weight:1.0 ~exit_port:1 ();
          ]
        ()

let fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* The CPU handlers of [Nflib.Catalog.attach_handlers], each wrapped by
   [wrap name] — how the traced run times handler calls from outside
   the program. *)
let attach_wrapped rt ~wrap =
  Runtime.register_nf_id rt Nflib.Lb.name Nflib.Lb.nf_id;
  Runtime.register_nf_id rt Nflib.Classifier.name Nflib.Classifier.nf_id;
  Runtime.register_nf_id rt Nflib.Nat.name Nflib.Nat.nf_id;
  let lb_table = Compose.nf_table_name ~nf:Nflib.Lb.name Nflib.Lb.table_name in
  Runtime.on_to_cpu_state rt Nflib.Lb.name (fun chip store ->
      match Asic.Chip.find_table chip lb_table with
      | Some table ->
          let sessions = Option.map (Nflib.Lb.sessions ~table) store in
          wrap "handler.lb"
            (Nflib.Lb.handler ?sessions ~backends:Nflib.Catalog.tenant1_backends ~table ())
      | None -> fun _ _ -> Runtime.Consume);
  let nat_table = Compose.nf_table_name ~nf:Nflib.Nat.name Nflib.Nat.table_name in
  Runtime.on_to_cpu_state rt Nflib.Nat.name (fun chip store ->
      match Asic.Chip.find_table chip nat_table with
      | Some table ->
          let bindings = Option.map (Nflib.Nat.bindings_table ~table) store in
          wrap "handler.nat" (Nflib.Nat.handler ?bindings ~pool:Nflib.Catalog.nat_pool ~table ())
      | None -> fun _ _ -> Runtime.Consume)

type t = { compiled : Compiler.t; rt : Runtime.t }

(* Set-up phase durations, ns. *)
type timing = { total : int; compile : int; fib : int; create : int }

(* One fresh deployment. With [spans], records [setup] and its
   children; with [wrap], registers wrapped handlers instead of the
   catalog's. *)
let setup ?spans ?wrap kind engine =
  let s0 = Clock.now_ns () in
  let compiled = fail "compile" (Compiler.compile (input kind)) in
  let c1 = Clock.now_ns () in
  ignore (fail "FIB install" (Ctrl.apply_all compiled.Compiler.chip fib_ops));
  let f1 = Clock.now_ns () in
  let rt = Runtime.create ~engine compiled in
  let r1 = Clock.now_ns () in
  (match wrap with
  | None -> Nflib.Catalog.attach_handlers rt compiled
  | Some wrap -> attach_wrapped rt ~wrap);
  let s1 = Clock.now_ns () in
  Option.iter
    (fun sp ->
      let span name start stop parent =
        Span.add sp ~name:(Span.intern sp name) ~start ~stop ~parent ~pkt:(-1) ~tid:0
      in
      let parent = span "setup" s0 s1 (-1) in
      ignore (span "compiler.compile" s0 c1 parent);
      ignore (span "ctrl.fib_install" c1 f1 parent);
      ignore (span "runtime.create" f1 r1 parent))
    spans;
  ({ compiled; rt }, { total = s1 - s0; compile = c1 - s0; fib = f1 - c1; create = r1 - f1 })
