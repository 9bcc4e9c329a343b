(* The closed loop: one client submits a batch, waits for it to
   return, then submits the next. Each packet's completion is stamped
   from the [?each] callback; a packet's latency is its stamp minus the
   previous stamp on the same domain (the shard's serial executor), or
   minus the batch start for the first packet a domain completes. *)

open Dejavu_core

(* Handler calls timed by wrapped handlers (see [Deploy.attach_wrapped]).
   They may run on shard domains, hence the lock. *)
type calls = { lock : Mutex.t; mutable pending : (int * int * int * int) list }
(* (span name id, start, stop, domain) *)

let calls () = { lock = Mutex.create (); pending = [] }

let wrap_handler calls spans name (h : Runtime.handler) : Runtime.handler =
  let id = Span.intern spans name in
  fun sfc frame ->
    let t0 = Clock.now_ns () in
    let r = h sfc frame in
    let t1 = Clock.now_ns () in
    let d = (Domain.self () :> int) in
    Mutex.lock calls.lock;
    calls.pending <- (id, t0, t1, d) :: calls.pending;
    Mutex.unlock calls.lock;
    r

(* What a run observes. *)
type acc = {
  lat : Stats.Buf.t;  (** every packet's latency, ns *)
  fast_lat : Stats.Buf.t;  (** packets with no CPU round trip *)
  punt_lat : Stats.Buf.t;  (** packets with at least one *)
  hit_lat : Stats.Buf.t;  (** flow-cache hits (sequential cached runs only) *)
  miss_lat : Stats.Buf.t;
  batch_ms : Stats.Buf.t;
  startup_us : Stats.Buf.t;  (** batch start -> a domain's first completion *)
  tail_us : Stats.Buf.t;  (** a domain's last completion -> batch return *)
  busy : Stats.Buf.t;  (** share of domain-time spent before the last completion *)
  skew : Stats.Buf.t;  (** most packets on one domain / the even share *)
  ctrl_us : Stats.Buf.t;  (** one sample per [Runtime.apply_ops] call *)
  calib_ns : Stats.Buf.t;  (** a [Calib.sample] after each calibrated batch *)
  mutable packets : int;
  mutable errors : int;
  mutable wall_ns : int;  (** inside [process_batch*] calls *)
  mutable emitted : int;
  mutable model_ns : float;  (** modelled latency summed over emitted packets *)
  mutable alloc_words : float;
  mutable promoted_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable ops : int;
  mutable ops_failed : int;
  mutable ctrl_ns : int;
}

let acc () =
  let b () = Stats.Buf.create 1024 in
  {
    lat = b (); fast_lat = b (); punt_lat = b (); hit_lat = b (); miss_lat = b ();
    batch_ms = b (); startup_us = b (); tail_us = b (); busy = b (); skew = b ();
    ctrl_us = b (); calib_ns = b (); packets = 0; errors = 0; wall_ns = 0; emitted = 0; model_ns = 0.0;
    alloc_words = 0.0; promoted_words = 0.0; minor_gcs = 0; major_gcs = 0; ops = 0;
    ops_failed = 0; ctrl_ns = 0;
  }

(* Per-packet scratch, reused across batches. *)
type scratch = {
  mutable stamp : int array;
  mutable dom : int array;
  mutable kind : int array;  (* 0 emitted, 1 dropped, 2 to_cpu, 3 error *)
  mutable rounds : int array;
  mutable mlat : float array;
  mutable hit : bool array;
  mutable order : int array;
}

let scratch () =
  { stamp = [||]; dom = [||]; kind = [||]; rounds = [||]; mlat = [||]; hit = [||]; order = [||] }

let ensure sc n =
  if Array.length sc.stamp < n then begin
    sc.stamp <- Array.make n 0;
    sc.dom <- Array.make n 0;
    sc.kind <- Array.make n 0;
    sc.rounds <- Array.make n 0;
    sc.mlat <- Array.make n 0.0;
    sc.hit <- Array.make n false;
    sc.order <- Array.make n 0
  end

type tracer = { spans : Span.t; calls : calls; batch_id : int; packet_id : int }

let tracer spans calls =
  { spans; calls; batch_id = Span.intern spans "batch"; packet_id = Span.intern spans "packet" }

(* The words a domain has allocated: minor plus direct-major (promotions
   are already in the minor count). *)
let gc_sample () = Gc.quick_stat ()

let gc_delta acc (a : Gc.stat) (b : Gc.stat) =
  acc.alloc_words <-
    acc.alloc_words
    +. (b.Gc.minor_words -. a.Gc.minor_words)
    +. (b.Gc.major_words -. b.Gc.promoted_words)
    -. (a.Gc.major_words -. a.Gc.promoted_words);
  acc.promoted_words <- acc.promoted_words +. (b.Gc.promoted_words -. a.Gc.promoted_words);
  acc.minor_gcs <- acc.minor_gcs + (b.Gc.minor_collections - a.Gc.minor_collections);
  acc.major_gcs <- acc.major_gcs + (b.Gc.major_collections - a.Gc.major_collections)

(* Run one batch and fold what it shows into [acc]. [domains] > 1 runs
   [Runtime.process_batch_parallel]. [also] sees every packet's result
   after it is stamped (the correctness gate's self-test uses it).
   [calibrate] runs the host-speed loop after the batch. *)
let batch ?tracer ?also ?(record = true) ?(calibrate = false) acc sc rt ~domains pkts =
  let n = List.length pkts in
  ensure sc n;
  (* Handler calls belong to the batch they run in. *)
  Option.iter (fun tr -> tr.calls.pending <- []) tracer;
  let cache_stats =
    if domains = 1 then Option.map Flow_cache.stats (Runtime.flow_cache rt) else None
  in
  let last_hits = ref (match cache_stats with Some s -> s.Flow_cache.hits | None -> 0) in
  let each i res =
    sc.stamp.(i) <- Clock.now_ns ();
    sc.dom.(i) <- (Domain.self () :> int);
    (match res with
    | Error _ ->
        sc.kind.(i) <- 3;
        sc.rounds.(i) <- 0
    | Ok (o : Runtime.outcome) -> (
        sc.rounds.(i) <- o.Runtime.counters.Runtime.Counters.cpu_round_trips;
        match o.Runtime.verdict with
        | Asic.Chip.Emitted _ ->
            sc.kind.(i) <- 0;
            sc.mlat.(i) <- o.Runtime.counters.Runtime.Counters.latency_ns
        | Asic.Chip.Dropped -> sc.kind.(i) <- 1
        | Asic.Chip.To_cpu _ -> sc.kind.(i) <- 2));
    (match cache_stats with
    | Some s ->
        sc.hit.(i) <- s.Flow_cache.hits > !last_hits;
        last_hits := s.Flow_cache.hits
    | None -> ());
    match also with Some f -> f i res | None -> ()
  in
  let g0 = gc_sample () in
  let t0 = Clock.now_ns () in
  let stats =
    if domains > 1 then Runtime.process_batch_parallel ~domains ~each rt pkts
    else Runtime.process_batch ~each rt pkts
  in
  let t1 = Clock.now_ns () in
  let g1 = gc_sample () in
  if record then begin
    gc_delta acc g0 g1;
    acc.wall_ns <- acc.wall_ns + (t1 - t0);
    Stats.Buf.add acc.batch_ms (float_of_int (t1 - t0) /. 1e6);
    (* Completion order: by domain, then by stamp. *)
    let order = sc.order in
    for i = 0 to n - 1 do
      order.(i) <- i
    done;
    let key k = (sc.dom.(order.(k)), sc.stamp.(order.(k))) in
    if domains > 1 then begin
      let sorted = Array.sub order 0 n in
      Array.stable_sort
        (fun a b -> compare (sc.dom.(a), sc.stamp.(a)) (sc.dom.(b), sc.stamp.(b)))
        sorted;
      Array.blit sorted 0 order 0 n
    end;
    let batch_span =
      match tracer with
      | Some tr ->
          Span.add tr.spans ~name:tr.batch_id ~start:t0 ~stop:t1 ~parent:(-1) ~pkt:(-1) ~tid:0
      | None -> -1
    in
    let first_span = match tracer with Some tr -> Span.length tr.spans | None -> 0 in
    let prev = ref t0 and group = ref (-1) and lane = ref (-1) in
    let most = ref 0 and count = ref 0 and busy = ref 0 in
    let close_group last =
      if !group >= 0 then begin
        Stats.Buf.add acc.tail_us (float_of_int (t1 - last) /. 1e3);
        busy := !busy + (last - t0);
        most := max !most !count
      end
    in
    for k = 0 to n - 1 do
      let i = order.(k) in
      if sc.dom.(i) <> !group then begin
        close_group !prev;
        group := sc.dom.(i);
        incr lane;
        prev := t0;
        count := 0;
        Stats.Buf.add acc.startup_us (float_of_int (sc.stamp.(i) - t0) /. 1e3)
      end;
      let l = sc.stamp.(i) - !prev in
      let lf = float_of_int l in
      Stats.Buf.add acc.lat lf;
      (match sc.kind.(i) with
      | 3 -> acc.errors <- acc.errors + 1
      | 0 ->
          acc.emitted <- acc.emitted + 1;
          acc.model_ns <- acc.model_ns +. sc.mlat.(i)
      | _ -> ());
      Stats.Buf.add (if sc.rounds.(i) > 0 then acc.punt_lat else acc.fast_lat) lf;
      if cache_stats <> None then Stats.Buf.add (if sc.hit.(i) then acc.hit_lat else acc.miss_lat) lf;
      (match tracer with
      | Some tr ->
          ignore
            (Span.add tr.spans ~name:tr.packet_id ~start:!prev ~stop:sc.stamp.(i)
               ~parent:batch_span ~pkt:(acc.packets + i) ~tid:!lane)
      | None -> ());
      prev := sc.stamp.(i);
      incr count
    done;
    close_group !prev;
    let lanes = float_of_int domains in
    Stats.Buf.add acc.busy (float_of_int !busy /. (lanes *. float_of_int (max 1 (t1 - t0))));
    Stats.Buf.add acc.skew (float_of_int !most /. (float_of_int n /. lanes));
    (* Handler calls: each belongs to the packet whose completion on the
       same domain is the first at or after the call's end. *)
    (match tracer with
    | None -> ()
    | Some tr ->
        let pending = List.rev tr.calls.pending in
        tr.calls.pending <- [];
        List.iter
          (fun (name, s, e, d) ->
            let lo = ref 0 and hi = ref n in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if key mid < (d, e) then lo := mid + 1 else hi := mid
            done;
            let parent, pkt, lane =
              if !lo < n && fst (key !lo) = d then
                let p = first_span + !lo in
                (p, Span.pkt tr.spans p, Span.tid tr.spans p)
              else (batch_span, -1, 0)
            in
            ignore (Span.add tr.spans ~name ~start:s ~stop:e ~parent ~pkt ~tid:lane))
          pending);
    acc.packets <- acc.packets + n;
    if calibrate then Stats.Buf.add acc.calib_ns (Calib.sample ())
  end;
  stats

(* One control batch through the runtime's front door, timed. *)
let ops ?tracer ?(record = true) acc rt = function
  | [] -> Ok 0
  | ops ->
      let t0 = Clock.now_ns () in
      let r = Runtime.apply_ops rt ops in
      let t1 = Clock.now_ns () in
      if record then begin
        acc.ops <- acc.ops + List.length ops;
        (match r with Ok _ -> () | Error _ -> acc.ops_failed <- acc.ops_failed + 1);
        acc.ctrl_ns <- acc.ctrl_ns + (t1 - t0);
        Stats.Buf.add acc.ctrl_us (float_of_int (t1 - t0) /. 1e3);
        Option.iter
          (fun tr ->
            ignore
              (Span.add tr.spans ~name:(Span.intern tr.spans "ctrl.apply") ~start:t0 ~stop:t1
                 ~parent:(-1) ~pkt:(-1) ~tid:0))
          tracer
      end;
      r
