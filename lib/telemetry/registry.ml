type item = C of int ref | H of Histogram.t

type t = {
  items : (string, item) Hashtbl.t;
  mutable rev_order : string list;
}

let create () = { items = Hashtbl.create 64; rev_order = [] }

let register t name item =
  Hashtbl.add t.items name item;
  t.rev_order <- name :: t.rev_order;
  item

let counter t name =
  match Hashtbl.find_opt t.items name with
  | Some (C r) -> r
  | Some (H _) ->
      invalid_arg (Printf.sprintf "Registry.counter: %s is a histogram" name)
  | None -> ( match register t name (C (ref 0)) with C r -> r | H _ -> assert false)

let histogram t name =
  match Hashtbl.find_opt t.items name with
  | Some (H h) -> h
  | Some (C _) ->
      invalid_arg (Printf.sprintf "Registry.histogram: %s is a counter" name)
  | None -> (
      match register t name (H (Histogram.create ())) with
      | H h -> h
      | C _ -> assert false)

let find_counter t name =
  match Hashtbl.find_opt t.items name with Some (C r) -> Some r | _ -> None

let find_histogram t name =
  match Hashtbl.find_opt t.items name with Some (H h) -> Some h | _ -> None

(* Fold [src] into [into]: counters add, histograms merge bucket-wise.
   Iterating src in registration order keeps the merged registry's
   display order sensible when [into] sees a name for the first time. *)
let merge ~into src =
  List.iter
    (fun name ->
      match Hashtbl.find src.items name with
      | C r ->
          let d = counter into name in
          d := !d + !r
      | H h -> Histogram.merge_into ~dst:(histogram into name) h)
    (List.rev src.rev_order)

let reset t =
  Hashtbl.iter
    (fun _ item ->
      match item with C r -> r := 0 | H h -> Histogram.reset h)
    t.items

type value =
  | Vcount of int
  | Vhist of {
      count : int;
      sum : int;
      mean : float;
      p50 : int;
      p99 : int;
      buckets : (int * int) list;
    }

type snapshot = (string * value) list

(* Quantile over a sparse (bucket, count) list — same contract as
   [Histogram.quantile], reused by [delta] where no live histogram
   backs the diffed buckets. *)
let sparse_quantile buckets count q =
  if count = 0 then 0
  else begin
    let target =
      let x = int_of_float (ceil (q *. float_of_int count)) in
      if x < 1 then 1 else if x > count then count else x
    in
    let rec go acc = function
      | [] -> snd (Histogram.bounds (Histogram.n_buckets - 1))
      | (b, n) :: rest ->
          let acc = acc + n in
          if acc >= target then snd (Histogram.bounds b) else go acc rest
    in
    go 0 buckets
  end

let vhist_of_buckets buckets sum =
  let count = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
  Vhist
    {
      count;
      sum;
      mean = (if count = 0 then 0.0 else float_of_int sum /. float_of_int count);
      p50 = sparse_quantile buckets count 0.5;
      p99 = sparse_quantile buckets count 0.99;
      buckets;
    }

let snapshot t =
  List.rev_map
    (fun name ->
      match Hashtbl.find t.items name with
      | C r -> (name, Vcount !r)
      | H h -> (name, vhist_of_buckets (Histogram.nonzero h) (Histogram.sum h)))
    t.rev_order

let delta ~since now =
  List.filter_map
    (fun (name, v) ->
      match (v, List.assoc_opt name since) with
      | Vcount n, Some (Vcount o) -> Some (name, Vcount (n - o))
      | Vcount n, (None | Some (Vhist _)) -> Some (name, Vcount n)
      | Vhist h, Some (Vhist o) ->
          let diffed =
            List.filter_map
              (fun (b, n) ->
                let prev =
                  Option.value ~default:0 (List.assoc_opt b o.buckets)
                in
                if n - prev > 0 then Some (b, n - prev) else None)
              h.buckets
          in
          Some (name, vhist_of_buckets diffed (h.sum - o.sum))
      | Vhist h, (None | Some (Vcount _)) ->
          Some (name, vhist_of_buckets h.buckets h.sum))
    now

let value_fields = function
  | Vcount n -> [ ("value", Json.Int n) ]
  | Vhist h ->
      [
        ("count", Json.Int h.count);
        ("sum", Json.Int h.sum);
        ("mean", Json.fixed 3 h.mean);
        ("p50", Json.Int h.p50);
        ("p99", Json.Int h.p99);
        ( "buckets",
          Json.Obj
            (List.map
               (fun (b, n) ->
                 (string_of_int (max 0 (fst (Histogram.bounds b))), Json.Int n))
               h.buckets) );
      ]

let to_json snap =
  Json.to_string ~pretty:true
    (Json.Obj
       (List.map
          (fun (name, v) ->
            match v with
            | Vcount n -> (name, Json.Int n)
            | Vhist _ -> (name, Json.Obj (value_fields v)))
          snap))

let pp ppf snap =
  let width =
    List.fold_left (fun acc (name, _) -> max acc (String.length name)) 8 snap
  in
  List.iter
    (fun (name, v) ->
      match v with
      | Vcount n -> Format.fprintf ppf "%-*s %12d@," width name n
      | Vhist h ->
          Format.fprintf ppf "%-*s %12d samples  mean=%.0f p50<=%d p99<=%d@,"
            width name h.count h.mean h.p50 h.p99;
          List.iter
            (fun (b, n) ->
              let lo, hi = Histogram.bounds b in
              Format.fprintf ppf "%-*s   [%d..%s] %d@," width ""
                (max 0 lo)
                (if hi = max_int then "inf" else string_of_int hi)
                n)
            h.buckets)
    snap
