type event =
  | T_table of string * string * bool
  | T_gateway of string * bool
  | T_enter of string

type hop_meta = {
  sfc : (int * int) option;
  headers : string list;
}

let no_meta = { sfc = None; headers = [] }

type hop = {
  pipelet : string;
  events : event list;
  latency_ns : float;
  recirc_depth : int;
  resubmit_depth : int;
  meta : hop_meta;
}

let nfs h = List.filter_map (function T_enter nf -> Some nf | _ -> None) h.events

let tables h =
  List.filter_map
    (function T_table (t, a, hit) -> Some (t, a, hit) | _ -> None)
    h.events

let gateways h =
  List.fold_left (fun n -> function T_gateway _ -> n + 1 | _ -> n) 0 h.events

let pp_event ppf = function
  | T_table (t, a, hit) ->
      Format.fprintf ppf "%-30s -> %-14s %s" t a (if hit then "(hit)" else "(miss)")
  | T_gateway (c, v) -> Format.fprintf ppf "if %s -> %b" c v
  | T_enter nf -> Format.fprintf ppf ">> %s" nf

type t = {
  id : int;
  flow : string;
  in_port : int;
  verdict : string;
  cpu_round_trips : int;
  recircs : int;
  resubmits : int;
  latency_ns : float;
  wall_ns : int;
  hops : hop list;
}

let strings l = Json.List (List.map (fun x -> Json.String x) l)

let hop_json h =
  Json.Obj
    [
      ("pipelet", Json.String h.pipelet);
      ( "sfc",
        match h.meta.sfc with
        | None -> Json.Null
        | Some (spid, si) ->
            Json.Obj
              [ ("service_path_id", Json.Int spid); ("service_index", Json.Int si) ]
      );
      ("latency_ns", Json.fixed 1 h.latency_ns);
      ("recirc_depth", Json.Int h.recirc_depth);
      ("resubmit_depth", Json.Int h.resubmit_depth);
      ("nfs", strings (nfs h));
      ("gateways", Json.Int (gateways h));
      ("headers", strings h.meta.headers);
      ( "tables",
        Json.List
          (List.map
             (fun (t, a, hit) ->
               Json.Obj
                 [
                   ("table", Json.String t);
                   ("action", Json.String a);
                   ("hit", Json.Bool hit);
                 ])
             (tables h)) );
    ]

let json t =
  Json.Obj
    [
      ("id", Json.Int t.id);
      ("flow", Json.String t.flow);
      ("in_port", Json.Int t.in_port);
      ("verdict", Json.String t.verdict);
      ("cpu_round_trips", Json.Int t.cpu_round_trips);
      ("recircs", Json.Int t.recircs);
      ("resubmits", Json.Int t.resubmits);
      ("latency_ns", Json.fixed 1 t.latency_ns);
      ("wall_ns", Json.Int t.wall_ns);
      ("hops", Json.List (List.map hop_json t.hops));
    ]

let to_json t = Json.to_string ~pretty:true (json t)
let list_to_json l = Json.to_string ~pretty:true (Json.List (List.map json l))

let pp ppf t =
  Format.fprintf ppf
    "@[<v 2>journey #%d %s in_port=%d %s (cpu=%d recircs=%d resubmits=%d \
     latency=%.0fns wall=%dns)@,"
    t.id t.flow t.in_port t.verdict t.cpu_round_trips t.recircs t.resubmits
    t.latency_ns t.wall_ns;
  List.iter
    (fun h ->
      Format.fprintf ppf "@[<v 2>%s" h.pipelet;
      Format.fprintf ppf "  +%.0fns" h.latency_ns;
      if h.recirc_depth > 0 || h.resubmit_depth > 0 then
        Format.fprintf ppf "  depth=(recirc %d, resubmit %d)" h.recirc_depth
          h.resubmit_depth;
      (match h.meta.sfc with
      | Some (spid, si) -> Format.fprintf ppf "  sfc=(%d,%d)" spid si
      | None -> ());
      (match nfs h with
      | [] -> ()
      | l -> Format.fprintf ppf "  nfs=[%s]" (String.concat "," l));
      List.iter
        (fun (t, a, hit) ->
          Format.fprintf ppf "@,%-30s -> %-16s %s" t a
            (if hit then "(hit)" else "(miss)"))
        (tables h);
      Format.fprintf ppf "@]@,")
    t.hops;
  Format.fprintf ppf "@]"

let pp_trace ppf t =
  List.iter
    (fun h ->
      Format.fprintf ppf "%s@\n" h.pipelet;
      List.iter (Format.fprintf ppf "  %a@\n" pp_event) h.events)
    t.hops
