(* Entries live in one encoded form — key and value as canonical byte
   strings — linked through an intrusive LRU list (head = most
   recently used). Everything uniform across NFs (digest, migration)
   falls out of that single representation; the typed view
   is a pair of codecs applied at the edges, off the per-packet fast
   path (punt handlers and control-plane sweeps only). *)

type config = { capacity : int; ttl_ns : int64 }

type evict_reason = Capacity | Expired

type table_stats = {
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable evictions : int;
  mutable expirations : int;
}

(* No box: the stamp is an immediate int, and the LRU neighbours are
   entries, with the table's sentinel past either end. *)
type entry = {
  key : string;
  mutable value : string;
  mutable touched : int;  (* the logical clock at the last touch, ns *)
  mutable prev : entry;  (* toward the MRU head *)
  mutable next : entry;  (* toward the LRU tail *)
}

type tbl = {
  tname : string;
  h : (string, entry) Hashtbl.t;
  (* The LRU ring's sentinel: [ring.next] is the most recently used
     entry and [ring.prev] the least; an empty table's sentinel is its
     own neighbour. *)
  ring : entry;
  tstats : table_stats;
  (* Raw (encoded-form) hooks: replaced by each (re-)registration, so
     migrated tables keep working hooks until their owner re-binds. *)
  mutable on_evict_raw : evict_reason -> string -> string -> unit;
  mutable shard_of_raw : string -> int64;
}

(* The clock and the TTL in ns, as ints; the [int64] edges convert. *)
type t = {
  cfg : config;
  ttl : int;
  mutable now : int;
  tbls : (string, tbl) Hashtbl.t;
}

type 'a conv = { enc : 'a -> string; dec : string -> ('a, string) result }

type ('k, 'v) table = { tb : tbl; store : t; kc : 'k conv; vc : 'v conv }

let create ?(now_ns = 0L) cfg =
  {
    cfg = { cfg with capacity = max 1 cfg.capacity };
    ttl = Int64.to_int cfg.ttl_ns;
    now = Int64.to_int now_ns;
    tbls = Hashtbl.create 8;
  }

let config t = t.cfg
let now t = Int64.of_int t.now

(* --- codecs --- *)

module Conv = struct
  let int =
    {
      enc = string_of_int;
      dec =
        (fun s ->
          match int_of_string_opt s with
          | Some i -> Ok i
          | None -> Error ("Conv.int: " ^ s));
    }

  let string = { enc = Fun.id; dec = (fun s -> Ok s) }

  let put32 b off v = Bytes.set_int32_be b off (Int64.to_int32 v)

  let get32 s off =
    Int64.logand
      (Int64.of_int32 (Bytes.get_int32_be (Bytes.unsafe_of_string s) off))
      0xFFFFFFFFL

  let ip4 =
    {
      enc =
        (fun ip ->
          let b = Bytes.create 4 in
          put32 b 0 (Netpkt.Ip4.to_int64 ip);
          Bytes.unsafe_to_string b);
      dec =
        (fun s ->
          if String.length s <> 4 then Error "Conv.ip4: bad length"
          else Ok (Netpkt.Ip4.of_int64 (get32 s 0)));
    }

  let five_tuple =
    {
      enc =
        (fun (ft : Netpkt.Flow.five_tuple) ->
          let b = Bytes.create 13 in
          put32 b 0 (Netpkt.Ip4.to_int64 ft.Netpkt.Flow.src);
          put32 b 4 (Netpkt.Ip4.to_int64 ft.Netpkt.Flow.dst);
          Bytes.set_uint8 b 8 (ft.Netpkt.Flow.proto land 0xff);
          Bytes.set_uint16_be b 9 (ft.Netpkt.Flow.src_port land 0xffff);
          Bytes.set_uint16_be b 11 (ft.Netpkt.Flow.dst_port land 0xffff);
          Bytes.unsafe_to_string b);
      dec =
        (fun s ->
          if String.length s <> 13 then Error "Conv.five_tuple: bad length"
          else
            let b = Bytes.unsafe_of_string s in
            Ok
              {
                Netpkt.Flow.src = Netpkt.Ip4.of_int64 (get32 s 0);
                dst = Netpkt.Ip4.of_int64 (get32 s 4);
                proto = Bytes.get_uint8 b 8;
                src_port = Bytes.get_uint16_be b 9;
                dst_port = Bytes.get_uint16_be b 11;
              });
    }
end

let crc_of_string s =
  let b = Bytes.unsafe_of_string s in
  Netpkt.Bytes_util.crc32 b ~off:0 ~len:(Bytes.length b)

let default_shard = crc_of_string

(* --- intrusive LRU list --- *)

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_front tb e =
  let s = tb.ring in
  e.prev <- s;
  e.next <- s.next;
  s.next.prev <- e;
  s.next <- e

let touch tb e now =
  e.touched <- now;
  if tb.ring.next != e then begin
    unlink e;
    push_front tb e
  end

(* --- raw (encoded-form) operations --- *)

let fresh_tbl name =
  let rec ring = { key = ""; value = ""; touched = 0; prev = ring; next = ring } in
  {
    tname = name;
    h = Hashtbl.create 64;
    ring;
    tstats = { hits = 0; misses = 0; inserts = 0; evictions = 0; expirations = 0 };
    on_evict_raw = (fun _ _ _ -> ());
    shard_of_raw = default_shard;
  }

let find_or_create_tbl t name =
  match Hashtbl.find_opt t.tbls name with
  | Some tb -> tb
  | None ->
      let tb = fresh_tbl name in
      Hashtbl.replace t.tbls name tb;
      tb

let evict_entry tb reason e =
  unlink e;
  Hashtbl.remove tb.h e.key;
  (match reason with
  | Capacity -> tb.tstats.evictions <- tb.tstats.evictions + 1
  | Expired -> tb.tstats.expirations <- tb.tstats.expirations + 1);
  tb.on_evict_raw reason e.key e.value

let expired t e = t.ttl > 0 && t.now - e.touched >= t.ttl

(* A key [tb] does not hold, stamped [stamp] and linked at the MRU end
   after evicting from the LRU end down to capacity. *)
let add_raw t tb ~key ~value ~stamp =
  while Hashtbl.length tb.h >= t.cfg.capacity do
    evict_entry tb Capacity tb.ring.prev
  done;
  let e = { key; value; touched = stamp; prev = tb.ring; next = tb.ring } in
  Hashtbl.add tb.h key e;
  push_front tb e

(* Insert preserving an explicit stamp — the shared path for live
   inserts (stamp = now) and migration (stamp carried over). *)
let insert_raw t tb ~key ~value ~stamp =
  (match Hashtbl.find_opt tb.h key with
  | Some e ->
      e.value <- value;
      touch tb e stamp
  | None -> add_raw t tb ~key ~value ~stamp);
  tb.tstats.inserts <- tb.tstats.inserts + 1

(* The live entry under [key], touched, counting a hit; or [None],
   counting a miss, after expiring a lapsed entry there. *)
let probe t tb key =
  match Hashtbl.find_opt tb.h key with
  | Some e as live when not (expired t e) ->
      touch tb e t.now;
      tb.tstats.hits <- tb.tstats.hits + 1;
      live
  | found ->
      Option.iter (evict_entry tb Expired) found;
      tb.tstats.misses <- tb.tstats.misses + 1;
      None

let sorted_tbls t =
  List.sort
    (fun (a : tbl) b -> String.compare a.tname b.tname)
    (Hashtbl.fold (fun _ tb acc -> tb :: acc) t.tbls [])

let advance t ns =
  t.now <- t.now + Int64.to_int ns;
  if t.ttl <= 0 then 0
  else
    (* LRU order is touch order, so the tail is always the
       oldest-touched entry: sweep from the tail until the first live
       one. *)
    List.fold_left
      (fun total tb ->
        let n = ref 0 in
        while tb.ring.prev != tb.ring && expired t tb.ring.prev do
          evict_entry tb Expired tb.ring.prev;
          incr n
        done;
        total + !n)
      0 (sorted_tbls t)

(* --- typed view --- *)

let table t ~name ~key ~value ?shard_hint ?on_evict () =
  let tb = find_or_create_tbl t name in
  (tb.on_evict_raw <-
     (match on_evict with
     | None -> fun _ _ _ -> ()
     | Some f -> (
         fun reason k v ->
           match (key.dec k, value.dec v) with
           | Ok k, Ok v -> f reason k v
           | Error _, _ | _, Error _ -> ())));
  (* The hint decodes the encoded key: encoding masks ports and
     proto, and the hint must see what the store keeps. *)
  (tb.shard_of_raw <-
     (match shard_hint with
     | None -> default_shard
     | Some f -> (
         fun k -> match key.dec k with Ok k -> f k | Error _ -> default_shard k)));
  { tb; store = t; kc = key; vc = value }

let insert tt k v =
  insert_raw tt.store tt.tb ~key:(tt.kc.enc k) ~value:(tt.vc.enc v) ~stamp:tt.store.now

let find tt k =
  match probe tt.store tt.tb (tt.kc.enc k) with
  | None -> None
  | Some e -> Result.to_option (tt.vc.dec e.value)

(* [find], then [insert] on a miss, over one probe: the same tallies,
   touches and evictions, in the same order. *)
let find_or_insert tt k v =
  let t = tt.store and tb = tt.tb in
  let key = tt.kc.enc k in
  match probe t tb key with
  | Some e -> (
      match tt.vc.dec e.value with
      | Ok stored -> stored
      | Error _ ->
          e.value <- tt.vc.enc v;
          tb.tstats.inserts <- tb.tstats.inserts + 1;
          v)
  | None ->
      add_raw t tb ~key ~value:(tt.vc.enc v) ~stamp:t.now;
      tb.tstats.inserts <- tb.tstats.inserts + 1;
      v

let length tt = Hashtbl.length tt.tb.h

let fold f tt acc =
  (* Oldest first: walk from the LRU tail toward the head. *)
  let ring = tt.tb.ring in
  let rec go acc e =
    if e == ring then acc
    else
      let acc =
        match (tt.kc.dec e.key, tt.vc.dec e.value) with
        | Ok k, Ok v -> f k v acc
        | Error _, _ | _, Error _ -> acc
      in
      go acc e.prev
  in
  go acc ring.prev

let stats tt = tt.tb.tstats

let totals stores =
  let acc = Hashtbl.create 8 in
  Array.iter
    (fun t ->
      Hashtbl.iter
        (fun name tb ->
          let occ, (s : table_stats) =
            Option.value (Hashtbl.find_opt acc name)
              ~default:(0, { hits = 0; misses = 0; inserts = 0; evictions = 0; expirations = 0 })
          in
          let x = tb.tstats in
          Hashtbl.replace acc name
            ( occ + Hashtbl.length tb.h,
              {
                hits = s.hits + x.hits;
                misses = s.misses + x.misses;
                inserts = s.inserts + x.inserts;
                evictions = s.evictions + x.evictions;
                expirations = s.expirations + x.expirations;
              } ))
        t.tbls)
    stores;
  List.sort
    (fun (a, _, _) (b, _, _) -> String.compare a b)
    (Hashtbl.fold (fun name (occ, s) l -> (name, occ, s) :: l) acc [])

let per_table t = totals [| t |]

(* --- digest and migration --- *)

let fold_crc acc s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let head = Bytes.create 4 in
  Bytes.set_int32_be head 0 (Int32.of_int len);
  let acc = Netpkt.Bytes_util.crc32 ~init:acc head ~off:0 ~len:4 in
  Netpkt.Bytes_util.crc32 ~init:acc b ~off:0 ~len

let digest stores =
  (* Union across stores: a shard-partitioned store array and its
     single-store (cold, k=1) equivalent digest alike. Entries sort by
     (key, value) within each table name, so neither shard assignment
     nor LRU order leaks in. *)
  let names =
    List.sort_uniq String.compare
      (Array.to_list stores
      |> List.concat_map (fun t ->
             Hashtbl.fold (fun n _ acc -> n :: acc) t.tbls []))
  in
  List.fold_left
    (fun acc name ->
      let acc = fold_crc acc name in
      let entries =
        Array.to_list stores
        |> List.concat_map (fun t ->
               match Hashtbl.find_opt t.tbls name with
               | None -> []
               | Some tb ->
                   Hashtbl.fold (fun k e acc -> (k, e.value) :: acc) tb.h [])
      in
      let entries = List.sort compare entries in
      List.fold_left
        (fun acc (k, v) -> fold_crc (fold_crc acc k) v)
        acc entries)
    0L names

let migrate ~from ~into =
  let n = Array.length into in
  if n = 0 then invalid_arg "State_store.migrate: empty target";
  let clock = Array.fold_left (fun acc t -> max acc t.now) 0 from in
  Array.iter (fun t -> if clock > t.now then t.now <- clock) into;
  (* Group every source entry by table, then replay in touch-stamp
     order (key as tie-break) so each target's LRU order is
     stamp-faithful no matter how the sources interleaved. *)
  let names =
    List.sort_uniq String.compare
      (Array.to_list from
      |> List.concat_map (fun t ->
             Hashtbl.fold (fun nm _ acc -> nm :: acc) t.tbls []))
  in
  List.iter
    (fun name ->
      (* Each entry with its shard hash, from its key under the hint
         of the table that holds it. *)
      let entries =
        Array.to_list from
        |> List.concat_map (fun t ->
               match Hashtbl.find_opt t.tbls name with
               | None -> []
               | Some tb ->
                   Hashtbl.fold (fun _ e acc -> (e, tb.shard_of_raw e.key) :: acc) tb.h [])
      in
      let entries =
        List.sort
          (fun (a, _) (b, _) ->
            match Int.compare a.touched b.touched with
            | 0 -> String.compare a.key b.key
            | c -> c)
          entries
      in
      (* Carry hooks over so an evicting target can still mirror into
         the data plane before its owner re-binds. *)
      let hooks =
        Array.to_list from
        |> List.find_map (fun t -> Hashtbl.find_opt t.tbls name)
      in
      List.iter
        (fun (e, shard) ->
          let home =
            Int64.to_int
              (Int64.rem (Int64.logand shard Int64.max_int) (Int64.of_int n))
          in
          let target = into.(home) in
          let tb =
            match Hashtbl.find_opt target.tbls name with
            | Some tb -> tb
            | None ->
                let tb = fresh_tbl name in
                (match hooks with
                | Some src ->
                    tb.on_evict_raw <- src.on_evict_raw;
                    tb.shard_of_raw <- src.shard_of_raw
                | None -> ());
                Hashtbl.replace target.tbls name tb;
                tb
          in
          insert_raw target tb ~key:e.key ~value:e.value ~stamp:e.touched;
          (* migration moves entries; it is not fresh traffic *)
          tb.tstats.inserts <- tb.tstats.inserts - 1)
        entries)
    names
