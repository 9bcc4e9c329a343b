type hop_meta = {
  sfc : (int * int) option;
  headers : string list;
}

let no_meta = { sfc = None; headers = [] }

type hop = {
  pipelet : string;
  nfs : string list;
  tables : (string * string * bool) list;
  gateways : int;
  latency_ns : float;
  recirc_depth : int;
  resubmit_depth : int;
  meta : hop_meta;
}

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

let strings_json l =
  "[" ^ String.concat ", " (List.map Json.str l) ^ "]"

let hop_to_json pad h =
  let tables =
    String.concat ", "
      (List.map
         (fun (t, a, hit) ->
           Printf.sprintf "{ \"table\": %s, \"action\": %s, \"hit\": %b }"
             (Json.str t) (Json.str a) hit)
         h.tables)
  in
  let sfc =
    match h.meta.sfc with
    | None -> "null"
    | Some (spid, si) ->
        Printf.sprintf "{ \"service_path_id\": %d, \"service_index\": %d }" spid
          si
  in
  Printf.sprintf
    "%s{ \"pipelet\": %s, \"sfc\": %s,\n\
     %s  \"latency_ns\": %.1f, \"recirc_depth\": %d, \"resubmit_depth\": %d,\n\
     %s  \"nfs\": %s, \"gateways\": %d,\n\
     %s  \"headers\": %s,\n\
     %s  \"tables\": [%s] }"
    pad (Json.str h.pipelet) sfc pad h.latency_ns h.recirc_depth
    h.resubmit_depth pad (strings_json h.nfs) h.gateways pad
    (strings_json h.meta.headers)
    pad tables

let to_json ?(indent = 2) t =
  let pad = String.make indent ' ' in
  let hops =
    String.concat ",\n" (List.map (hop_to_json (pad ^ pad)) t.hops)
  in
  Printf.sprintf
    "{\n\
     %s\"id\": %d,\n\
     %s\"flow\": %s,\n\
     %s\"in_port\": %d,\n\
     %s\"verdict\": %s,\n\
     %s\"cpu_round_trips\": %d,\n\
     %s\"recircs\": %d,\n\
     %s\"resubmits\": %d,\n\
     %s\"latency_ns\": %.1f,\n\
     %s\"wall_ns\": %d,\n\
     %s\"hops\": [\n%s\n%s]\n\
     }"
    pad t.id pad (Json.str t.flow) pad t.in_port pad (Json.str t.verdict) pad
    t.cpu_round_trips pad t.recircs pad t.resubmits pad t.latency_ns pad
    t.wall_ns pad hops pad

let list_to_json l =
  "[\n" ^ String.concat ",\n" (List.map (to_json ~indent:2) l) ^ "\n]"

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
      if h.nfs <> [] then
        Format.fprintf ppf "  nfs=[%s]" (String.concat "," h.nfs);
      List.iter
        (fun (t, a, hit) ->
          Format.fprintf ppf "@,%-30s -> %-16s %s" t a
            (if hit then "(hit)" else "(miss)"))
        h.tables;
      Format.fprintf ppf "@]@,")
    t.hops;
  Format.fprintf ppf "@]"
