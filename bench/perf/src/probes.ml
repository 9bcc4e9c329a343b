(* Layer probes: after the timed window, sampled packets of the stream
   go through one public call of a single layer each, timed and with
   the minor words the call allocated. *)

open Dejavu_core

type sample = { ns : Stats.Buf.t; words : Stats.Buf.t }

let sample () = { ns = Stats.Buf.create 1024; words = Stats.Buf.create 1024 }

(* [f ()] with its duration (ns) and the minor words it allocated. *)
let measure f =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  let r = f () in
  let t1 = Clock.now_ns () in
  let w1 = Gc.minor_words () in
  (r, float_of_int (t1 - t0), w1 -. w0)

let add s ns words =
  Stats.Buf.add s.ns ns;
  Stats.Buf.add s.words words

let time s f =
  let r, ns, words = measure f in
  add s ns words;
  r

let p50 s = Stats.percentile (Stats.Buf.sorted s.ns) 50.0
let p99 s = Stats.percentile (Stats.Buf.sorted s.ns) 99.0
let mean_words s = Stats.Buf.sum s.words /. float_of_int (max 1 (Stats.Buf.length s.words))

let hosting chip name =
  List.find_map
    (fun pl ->
      List.find_map
        (fun tbl -> if P4ir.Table.name tbl = name then Some (pl, tbl) else None)
        (Asic.Pipelet.tables pl))
    (Asic.Chip.pipelets chip)

type t = {
  parse : sample;
  deparse : sample;
  exact : sample;
  lpm : sample;
  ternary : sample;
  inject : sample;
  process : sample;
  replicate_ms : float;
  cache_hit : sample;
  cache_miss : sample;
}

(* A table lookup for [frame] as the table's own pipelet sees it. The LB
   session key is the flow hash its action computes before the lookup,
   so it is set the same way here. *)
let lookup s (pl, tbl) ~key frame =
  match Asic.Pipelet.parse pl frame with
  | Error _ -> ()
  | Ok (phv, _) ->
      (match (key, P4ir.Table.keys tbl) with
      | Some v, k :: _ -> (
          try P4ir.Phv.set phv k.P4ir.Table.field (P4ir.Bitval.make ~width:k.P4ir.Table.width v)
          with Not_found | Invalid_argument _ -> ())
      | _ -> ());
      ignore (time s (fun () -> P4ir.Table.lookup tbl phv))

let session_hash frame =
  match Netpkt.Pkt.decode frame with
  | Ok layers -> Option.map Nflib.Lb.session_hash (Netpkt.Pkt.five_tuple_of layers)
  | Error _ -> None

(* [live] is the measured runtime after its window; [fresh ()] builds
   an untouched deployment of the same workload with the flow cache on. *)
let run ~(live : Deploy.t) ~fresh frames =
  let chip = Runtime.chip live.Deploy.rt in
  let entry =
    Asic.Chip.pipelet chip
      {
        Asic.Pipelet.pipeline = live.Deploy.compiled.Compiler.input.Compiler.entry_pipeline;
        kind = Asic.Pipelet.Ingress;
      }
  in
  let parse = sample () and deparse = sample () in
  List.iter
    (fun frame ->
      match time parse (fun () -> Asic.Pipelet.parse entry frame) with
      | Ok (phv, payload) ->
          ignore (time deparse (fun () -> Asic.Pipelet.deparse_fast entry phv ~payload))
      | Error _ -> ())
    frames;
  let table_probe names ~key =
    let s = sample () in
    (match List.find_map (hosting chip) names with
    | Some host -> List.iter (fun f -> lookup s host ~key:(key f) f) frames
    | None -> ());
    s
  in
  let name nf tbl = Compose.nf_table_name ~nf tbl in
  let exact = table_probe [ name Nflib.Lb.name Nflib.Lb.table_name ] ~key:session_hash in
  let lpm = table_probe [ Nflib.Catalog.routes_table_name ] ~key:(fun _ -> None) in
  (* The firewall ACL where the deployment has one, else the classifier
     (LPM + ternary keys, so it too takes the ternary scan). *)
  let ternary =
    table_probe
      [ Nflib.Catalog.acl_table_name; name Nflib.Classifier.name Nflib.Classifier.table_name ]
      ~key:(fun _ -> None)
  in
  let inject = sample () and process = sample () in
  List.iter
    (fun f -> ignore (time inject (fun () -> Asic.Chip.inject chip ~in_port:0 f)))
    frames;
  List.iter
    (fun f -> ignore (time process (fun () -> Runtime.process live.Deploy.rt ~in_port:0 f)))
    frames;
  let replicate_ms =
    Stats.median
      (List.init 5 (fun _ ->
           let t0 = Clock.now_ns () in
           ignore (Asic.Chip.replicate chip);
           float_of_int (Clock.now_ns () - t0) /. 1e6))
  in
  (* Flow-cache lookups on a fresh cache: every first lookup misses;
     after each packet has run twice (the first run may punt and so be
     uncacheable), cacheable flows hit. *)
  let cache_hit = sample () and cache_miss = sample () in
  let (p : Deploy.t) = fresh () in
  (match Runtime.flow_cache p.Deploy.rt with
  | None -> ()
  | Some c ->
      List.iter
        (fun f ->
          match time cache_miss (fun () -> Flow_cache.lookup c ~in_port:0 f) with
          | Some _ -> ()
          | None -> Flow_cache.abort c)
        frames;
      List.iter
        (fun f ->
          ignore (Runtime.process p.Deploy.rt ~in_port:0 f);
          ignore (Runtime.process p.Deploy.rt ~in_port:0 f))
        frames;
      List.iter
        (fun f ->
          match measure (fun () -> Flow_cache.lookup c ~in_port:0 f) with
          | Some _, ns, words -> add cache_hit ns words
          | None, _, _ -> Flow_cache.abort c)
        frames);
  { parse; deparse; exact; lpm; ternary; inject; process; replicate_ms; cache_hit; cache_miss }

(* Control ops replayed one at a time through [Ctrl.apply], timed by
   kind. *)
type ctrl = {
  add : Stats.Buf.t;  (** ns per op, by kind *)
  md : Stats.Buf.t;
  del : Stats.Buf.t;
  mutable failed : int;
  mutable total_ns : int;
  mutable n : int;
}

let ctrl () =
  let b () = Stats.Buf.create 256 in
  { add = b (); md = b (); del = b (); failed = 0; total_ns = 0; n = 0 }

let apply_op c chip op =
  let t0 = Clock.now_ns () in
  let r = Ctrl.apply chip op in
  let dt = Clock.now_ns () - t0 in
  c.total_ns <- c.total_ns + dt;
  c.n <- c.n + 1;
  (match r with Error _ -> c.failed <- c.failed + 1 | Ok () -> ());
  match op with
  | Ctrl.Table (_, Ctrl.Add _) -> Stats.Buf.add c.add (float_of_int dt)
  | Ctrl.Table (_, Ctrl.Mod _) -> Stats.Buf.add c.md (float_of_int dt)
  | Ctrl.Table (_, Ctrl.Del _) -> Stats.Buf.add c.del (float_of_int dt)
  | Ctrl.Table (_, Ctrl.Clear) | Ctrl.Reg_reset _ -> ()
