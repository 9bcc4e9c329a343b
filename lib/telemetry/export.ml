(* Snapshot exporters. Pure functions over [Registry.snapshot] — the
   caller snapshots (possibly after a merge from shard replicas) and
   these render; nothing here touches a live counter. *)

let legal_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

let mangle name =
  let mangled = String.map (fun c -> if legal_char c then c else '_') name in
  if mangled = "" then "_"
  else
    match mangled.[0] with '0' .. '9' -> "_" ^ mangled | _ -> mangled

(* --- Prometheus text exposition (0.0.4) --- *)

(* The registry's log2 buckets render as a sparse cumulative series:
   each populated bucket contributes one [_bucket{le="<hi>"}] sample at
   its inclusive upper bound, and the mandatory [le="+Inf"] closes with
   the total count. Sparseness is fine — cumulative semantics make the
   missing (empty) buckets implied by the next populated one. *)
let add_histogram buf base (h : Registry.value) =
  match h with
  | Registry.Vcount _ -> assert false
  | Registry.Vhist { count; sum; buckets; _ } ->
      let cum = ref 0 in
      List.iter
        (fun (b, n) ->
          cum := !cum + n;
          if b < Histogram.n_buckets - 1 then
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" base
                 (snd (Histogram.bounds b))
                 !cum))
        buckets;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" base count);
      Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" base sum);
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" base count)

let prometheus ?(namespace = "dejavu") snap =
  let ns = mangle namespace in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      let base = ns ^ "_" ^ mangle name in
      match v with
      | Registry.Vcount n ->
          let m = base ^ "_total" in
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s dejavu counter %s\n" m name);
          Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" m);
          Buffer.add_string buf (Printf.sprintf "%s %d\n" m n)
      | Registry.Vhist _ ->
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s dejavu histogram %s\n" base name);
          Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" base);
          add_histogram buf base v)
    snap;
  Buffer.contents buf

(* --- Parser (the round-trip validator) --- *)

type metric = {
  metric : string;
  labels : (string * string) list;
  value : float;
}

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let parse_value s =
  match String.lowercase_ascii s with
  | "+inf" | "inf" -> Some infinity
  | "-inf" -> Some neg_infinity
  | "nan" -> Some nan
  | _ -> float_of_string_opt s

(* One sample line: a metric name, an optional brace-delimited label
   set with quoted values, then the value. The label scanner handles
   the escapes the exposition format allows: backslash, quote, \n. *)
let parse_line line =
  let n = String.length line in
  let i = ref 0 in
  if n = 0 || not (is_name_start line.[0]) then Error "bad metric name"
  else begin
    while !i < n && (legal_char line.[!i]) do incr i done;
    let name = String.sub line 0 !i in
    let labels = ref [] in
    let err = ref None in
    (if !i < n && line.[!i] = '{' then begin
       incr i;
       let fine = ref true in
       while !fine && !i < n && line.[!i] <> '}' do
         let ls = !i in
         while !i < n && legal_char line.[!i] do incr i done;
         let lname = String.sub line ls (!i - ls) in
         if lname = "" || !i >= n || line.[!i] <> '=' then begin
           err := Some "bad label name";
           fine := false
         end
         else begin
           incr i;
           if !i >= n || line.[!i] <> '"' then begin
             err := Some "label value must be quoted";
             fine := false
           end
           else begin
             incr i;
             let b = Buffer.create 16 in
             let closed = ref false in
             while (not !closed) && !i < n do
               (match line.[!i] with
               | '"' -> closed := true
               | '\\' when !i + 1 < n ->
                   incr i;
                   Buffer.add_char b
                     (match line.[!i] with 'n' -> '\n' | c -> c)
               | c -> Buffer.add_char b c);
               incr i
             done;
             if not !closed then begin
               err := Some "unterminated label value";
               fine := false
             end
             else begin
               labels := (lname, Buffer.contents b) :: !labels;
               if !i < n && line.[!i] = ',' then incr i
             end
           end
         end
       done;
       if !fine then
         if !i < n && line.[!i] = '}' then incr i
         else err := Some "unterminated label set"
     end);
    match !err with
    | Some e -> Error e
    | None ->
        let rest = String.trim (String.sub line !i (n - !i)) in
        (* A timestamp after the value is legal exposition; take the
           first token as the value. *)
        let value_tok =
          match String.index_opt rest ' ' with
          | Some sp -> String.sub rest 0 sp
          | None -> rest
        in
        if value_tok = "" then Error "missing value"
        else
          match parse_value value_tok with
          | Some value ->
              Ok { metric = name; labels = List.rev !labels; value }
          | None -> Error (Printf.sprintf "bad value %S" value_tok)
  end

let parse_prometheus text =
  let lines = String.split_on_char '\n' text in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let t = String.trim line in
        if t = "" || t.[0] = '#' then go acc (lineno + 1) rest
        else
          match parse_line t with
          | Ok m -> go (m :: acc) (lineno + 1) rest
          | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
  in
  go [] 1 lines

(* --- JSON lines --- *)

let json_lines ?now_ns snap =
  let ts =
    match now_ns with
    | None -> []
    | Some t -> [ ("ts_ns", Json.Int (Int64.to_int t)) ]
  in
  String.concat ""
    (List.map
       (fun (name, v) ->
         let kind =
           match v with
           | Registry.Vcount _ -> "counter"
           | Registry.Vhist _ -> "histogram"
         in
         Json.to_string
           (Json.Obj
              (ts
              @ (("name", Json.String name) :: ("type", Json.String kind)
                :: Registry.value_fields v)))
         ^ "\n")
       snap)

(* --- Windowed rates --- *)

module Window = struct
  type t = (int64 * Registry.snapshot) Ring.t

  let create ~capacity : t = Ring.create (max 2 capacity)
  let push (t : t) ~now_ns snap = Ring.push t (now_ns, snap)
  let length = Ring.length

  let ends t =
    match Ring.to_list t with
    | [] | [ _ ] -> None
    | oldest :: rest -> Some (oldest, List.nth rest (List.length rest - 1))

  let span_ns t =
    match ends t with
    | None -> 0L
    | Some ((t0, _), (t1, _)) -> Int64.sub t1 t0

  let rates t =
    match ends t with
    | None -> []
    | Some ((t0, old), (t1, now)) ->
        let secs = Int64.to_float (Int64.sub t1 t0) /. 1e9 in
        if secs <= 0.0 then []
        else
          List.map
            (fun (name, v) ->
              match v with
              | Registry.Vcount n ->
                  let prev =
                    match List.assoc_opt name old with
                    | Some (Registry.Vcount o) -> o
                    | Some (Registry.Vhist _) | None -> 0
                  in
                  (name, float_of_int (n - prev) /. secs)
              | Registry.Vhist { count; _ } ->
                  let prev =
                    match List.assoc_opt name old with
                    | Some (Registry.Vhist { count = o; _ }) -> o
                    | Some (Registry.Vcount _) | None -> 0
                  in
                  (name ^ ".count", float_of_int (count - prev) /. secs))
            now
end
