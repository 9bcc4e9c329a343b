(* The INT per-flow aggregate: every journey pushed in folds into its
   flow's summary, and the flow table is capped. Everything is plain
   data — the runtime owns one aggregate per observer and merges shard
   aggregates after a parallel batch, so no locking here. *)

type summary = {
  flow : string;
  mutable packets : int;
  mutable hops : int;
  mutable latency_ns : float;
  mutable max_hops : int;
  mutable recircs : int;
  mutable resubmits : int;
  mutable verdicts : (string * int) list;
}

type t = {
  table : (string, summary) Hashtbl.t;
  max_flows : int;
  mutable dropped : int;
  mutable pushed : int;
}

let default_max_flows = 1024

let create ?(max_flows = default_max_flows) () =
  { table = Hashtbl.create 64; max_flows = max 1 max_flows; dropped = 0; pushed = 0 }

let add_verdict verdicts v n =
  let rec go = function
    | [] -> [ (v, n) ]
    | (k, m) :: rest when k = v -> (k, m + n) :: rest
    | kv :: rest -> kv :: go rest
  in
  go verdicts

(* The depth a walk reached is the last hop's depth counters; hop lists
   are short (pass_limit-bounded), so the List walk is fine here. *)
let depths hops =
  match List.rev hops with
  | [] -> (0, 0)
  | h :: _ -> (h.Journey.recirc_depth, h.Journey.resubmit_depth)

let aggregate s (j : Journey.t) =
  let nhops = List.length j.hops in
  let lat =
    List.fold_left (fun a (h : Journey.hop) -> a +. h.Journey.latency_ns) 0.0 j.hops
  in
  let recircs, resubmits = depths j.hops in
  s.packets <- s.packets + 1;
  s.hops <- s.hops + nhops;
  s.latency_ns <- s.latency_ns +. lat;
  s.max_hops <- max s.max_hops nhops;
  s.recircs <- s.recircs + recircs;
  s.resubmits <- s.resubmits + resubmits;
  s.verdicts <- add_verdict s.verdicts j.verdict 1

(* Find-or-create [flow]'s summary; [None] once the table is full. *)
let slot t flow =
  match Hashtbl.find_opt t.table flow with
  | Some s -> Some s
  | None when Hashtbl.length t.table >= t.max_flows -> None
  | None ->
      let s =
        {
          flow;
          packets = 0;
          hops = 0;
          latency_ns = 0.0;
          max_hops = 0;
          recircs = 0;
          resubmits = 0;
          verdicts = [];
        }
      in
      Hashtbl.replace t.table flow s;
      Some s

let push t (j : Journey.t) =
  t.pushed <- t.pushed + 1;
  match slot t j.flow with
  | Some s -> aggregate s j
  | None -> t.dropped <- t.dropped + 1

let pushed t = t.pushed

let summaries t =
  let all = Hashtbl.fold (fun _ s acc -> s :: acc) t.table [] in
  List.sort
    (fun a b ->
      match compare b.packets a.packets with
      | 0 -> compare a.flow b.flow
      | c -> c)
    all

let flows t = Hashtbl.length t.table
let dropped_flows t = t.dropped

let merge ~into src =
  Hashtbl.iter
    (fun flow (s : summary) ->
      match slot into flow with
      | None -> into.dropped <- into.dropped + s.packets
      | Some d ->
          d.packets <- d.packets + s.packets;
          d.hops <- d.hops + s.hops;
          d.latency_ns <- d.latency_ns +. s.latency_ns;
          d.max_hops <- max d.max_hops s.max_hops;
          d.recircs <- d.recircs + s.recircs;
          d.resubmits <- d.resubmits + s.resubmits;
          d.verdicts <-
            List.fold_left (fun vs (v, n) -> add_verdict vs v n) d.verdicts s.verdicts)
    src.table;
  into.dropped <- into.dropped + src.dropped;
  into.pushed <- into.pushed + src.pushed

let clear t =
  Hashtbl.reset t.table;
  t.dropped <- 0;
  t.pushed <- 0

let summary_json s =
  Json.Obj
    [
      ("flow", Json.String s.flow);
      ("packets", Json.Int s.packets);
      ("hops", Json.Int s.hops);
      ("max_hops", Json.Int s.max_hops);
      ("latency_ns", Json.fixed 1 s.latency_ns);
      ("recircs", Json.Int s.recircs);
      ("resubmits", Json.Int s.resubmits);
      ("verdicts", Json.Obj (List.map (fun (v, n) -> (v, Json.Int n)) s.verdicts));
    ]

let summary_to_json s = Json.to_string (summary_json s)

let to_json t =
  Json.to_string ~pretty:true (Json.List (List.map summary_json (summaries t)))

let pp_summaries ppf t =
  let ss = summaries t in
  Format.fprintf ppf "@[<v>%d flows, %d postcards (%d flows dropped)@,"
    (flows t) (pushed t) t.dropped;
  List.iter
    (fun s ->
      let mean_lat =
        if s.packets = 0 then 0.0
        else s.latency_ns /. float_of_int s.packets
      in
      Format.fprintf ppf
        "%-40s pkts=%-6d hops=%-5d max=%d lat/pkt=%.0fns %s@," s.flow s.packets
        s.hops s.max_hops mean_lat
        (String.concat " "
           (List.map (fun (v, n) -> Printf.sprintf "%s:%d" v n) s.verdicts)))
    ss;
  Format.fprintf ppf "@]"
