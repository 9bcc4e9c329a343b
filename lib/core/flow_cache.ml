(* The exact-match flow cache (EMC) in front of the compiled chain —
   the software analogue of OVS's first-level cache. After a flow's
   first packet walks the full pipeline, its whole-chain verdict is
   memoized: the rewritten header bytes (as an output prefix the
   payload is re-appended to), the egress port, the modeled latency,
   and a plan of every table the verdict depended on. Later packets of
   the flow skip parsing, match-action and deparsing entirely.

   Correctness rests on three pillars:

   - The key covers every input the pipeline can read: the arrival
     port plus the frame's entire header region (every byte the chip's
     parser family can extract — computed by a structural walk that
     mirrors the deepest parser Net_hdrs builds, over-approximating
     when in doubt). Payload bytes are opaque to the match-action
     pipeline and pass through unchanged, so they stay out of the key
     and are re-appended on hits.

   - A cached verdict depends on table state only. At miss time the
     armed Table recorders capture which tables were consulted, each
     with its mutation epoch, and a hit is served only while every
     one is unchanged. A run that reads or writes a register is never
     cached: the register NFs (the rate limiter, the DDoS sketch)
     update their cells on every packet, so a verdict recorded against
     a cell would be stale by the flow's next packet.

   - Anything the memoized fast path cannot reproduce is uncacheable:
     CPU punts (and resolved round trips), recirculations, resubmits,
     mirrored copies, register accesses, to-CPU verdicts and errors.

   Invalidation is epoch-based: every successful table mutation bumps
   the table's epoch, and entries die lazily at their next lookup when
   a recorded epoch mismatches. Eviction is LRU at a fixed capacity. *)

type tdep = { dtbl : P4ir.Table.t; tepoch : int }

(* The tables a verdict read, each with the epoch it was read at. Flows
   down one path read the same ones at the same epochs, so entries
   share their plan through the memo in [t]. *)
type plan = tdep array

type cverdict = V_emit of { port : int; prefix : Bytes.t } | V_drop

type entry = { verdict : cverdict; latency_ns : float; plan : plan }

let no_entry = { verdict = V_drop; latency_ns = 0.0; plan = [||] }

(* A miss run in progress: the key it will be cached under, the tables
   it consulted and whether it touched a register. *)
type recording = {
  key : string;
  mutable r_tdeps : tdep list;  (* reversed *)
  mutable touched_register : bool;
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable invalidations : int;
  mutable uncacheable : int;
  mutable inserts : int;
  mutable evictions : int;
}

(* Why [commit] refused a run, in the order it checks them: the first
   that applies is the one counted. *)
let reasons =
  [| "punt"; "recirc"; "resubmit"; "mirror"; "register"; "to_cpu";
     "payload_rewritten" |]

let r_punt = 0
and r_recirc = 1
and r_resubmit = 2
and r_mirror = 3
and r_register = 4
and r_to_cpu = 5
and r_payload = 6

(* Plans kept for sharing: the most recently committed distinct ones. *)
let plan_memo_size = 8

(* An entry lives in a slot: its key, its entry and its LRU links sit
   at one index of parallel arrays. The links are ints ([-1] ends a
   list), so a hit's touch writes no pointer and allocates nothing.
   Free slots are threaded through [next]. *)
type t = {
  capacity : int;
  tbl : (string, int) Hashtbl.t;  (* key -> slot *)
  mutable keys : string array;
  mutable entries : entry array;
  mutable prev : int array;
  mutable next : int array;
  mutable head : int;  (* most recent *)
  mutable tail : int;
  mutable free : int;
  mutable used : int;  (* slots [0, used) have been handed out *)
  mutable len : int;
  (* Armed between a miss and its commit/abort; the table/register
     hook closures route into it. [None] makes every hook a no-op. *)
  mutable recording : recording option;
  stats : stats;
  refused : int array;  (* uncacheable runs, by index into [reasons] *)
  plans : plan array;
  mutable plan_next : int;  (* the memo slot the next new plan takes *)
}

let stats t = t.stats
let capacity t = t.capacity
let length t = t.len

let hit_rate t =
  let total = t.stats.hits + t.stats.misses in
  if total = 0 then 0.0 else float_of_int t.stats.hits /. float_of_int total

(* --- The header walk ---

   Mirrors the deepest parser [Net_hdrs.base_parser] can build (VLAN,
   L4 and the VXLAN overlay all enabled): any chip parser in this tree
   extracts a prefix of what this walk covers, so keying on the walked
   region can only over-approximate — costing hit rate on flows that
   differ in early payload bytes, never correctness. Truncated or
   foreign frames fall back to the whole frame as key. *)

let ethertype_sfc = Netpkt.Eth.ethertype_sfc
let ethertype_ipv4 = Netpkt.Eth.ethertype_ipv4
let ethertype_vlan = Netpkt.Eth.ethertype_vlan
let udp_port_vxlan = 4789

(* The walk's steps are top-level functions of the frame and its length,
   not closures over them, so computing a key allocates only the key. *)

(* IPv4 at [off]; [overlay] opens the VXLAN branch under UDP. *)
let rec l3_len frame n ~overlay off =
  let u8 = Netpkt.Bytes_util.get_uint8 and u16 = Netpkt.Bytes_util.get_uint16 in
  if off + 20 > n then n
  else
    let proto = u8 frame (off + 9) in
    let l4 = off + 20 in
    if proto = Netpkt.Ipv4.proto_tcp then if l4 + 20 > n then n else l4 + 20
    else if proto = Netpkt.Ipv4.proto_udp then
      if l4 + 8 > n then n
      else if overlay && u16 frame (l4 + 2) = udp_port_vxlan then begin
        (* vxlan(8) + inner_eth(14), then the inner stack. *)
        let ie = l4 + 8 + 8 in
        if ie + 14 > n then n
        else if u16 frame (ie + 12) = ethertype_ipv4 then
          l3_len frame n ~overlay:false (ie + 14)
        else ie + 14
      end
      else l4 + 8
    else l4

let vlan_len frame n off =
  if off + 4 > n then n
  else if Netpkt.Bytes_util.get_uint16 frame (off + 2) = ethertype_ipv4 then
    l3_len frame n ~overlay:true (off + 4)
  else off + 4

(* Length of the keyed header region: a structural walk mirroring the
   deepest parser [Net_hdrs.base_parser] can build, falling back to the
   whole frame for truncated or foreign frames. *)
let header_len frame =
  let n = Bytes.length frame in
  if n < 14 then n
  else
    let et = Netpkt.Bytes_util.get_uint16 frame 12 in
    if et = ethertype_sfc then begin
      let sfc_end = 14 + Sfc_header.byte_size in
      if sfc_end > n then n
      else
        (* next_protocol is the SFC header's last byte. *)
        let np = Netpkt.Bytes_util.get_uint8 frame (sfc_end - 1) in
        if np = Sfc_header.next_proto_ipv4 then l3_len frame n ~overlay:true sfc_end
        else if np = 2 then vlan_len frame n sfc_end
        else sfc_end
    end
    else if et = ethertype_ipv4 then l3_len frame n ~overlay:true 14
    else if et = ethertype_vlan then vlan_len frame n 14
    else 14

let key_of ~in_port frame =
  let hl = header_len frame in
  let b = Bytes.create (2 + hl) in
  Netpkt.Bytes_util.set_uint16 b 0 (in_port land 0xFFFF);
  Bytes.blit frame 0 b 2 hl;
  Bytes.unsafe_to_string b

(* --- Recorder hooks --- *)

let arm t ~tables ~registers =
  List.iter
    (fun tbl ->
      P4ir.Table.set_on_lookup tbl (fun () ->
          match t.recording with
          | None -> ()
          | Some r ->
              if not (List.exists (fun d -> d.dtbl == tbl) r.r_tdeps) then
                r.r_tdeps <-
                  { dtbl = tbl; tepoch = P4ir.Table.epoch tbl } :: r.r_tdeps))
    tables;
  let touched () =
    match t.recording with None -> () | Some r -> r.touched_register <- true
  in
  List.iter (fun reg -> P4ir.Register.set_on_access reg touched) registers

(* Small at first and doubled as entries arrive, like [Hashtbl]'s
   buckets: a shard replica's cache that sees a few hundred flows must
   not pay for slot arrays sized for [capacity]. *)
let initial_slots = 16

let clear t =
  Hashtbl.reset t.tbl;
  let n = min t.capacity initial_slots in
  t.keys <- Array.make n "";
  t.entries <- Array.make n no_entry;
  t.prev <- Array.make n (-1);
  t.next <- Array.make n (-1);
  t.head <- -1;
  t.tail <- -1;
  t.free <- -1;
  t.used <- 0;
  t.len <- 0

let create ~capacity chip =
  let pipelets = Asic.Chip.pipelets chip in
  let tables = List.concat_map Asic.Pipelet.tables pipelets in
  let registers =
    List.concat_map
      (fun pl -> (Asic.Pipelet.program pl).P4ir.Program.registers)
      pipelets
  in
  let t =
    {
      capacity = max 1 capacity;
      tbl = Hashtbl.create initial_slots;
      (* [clear] sizes the slot arrays. *)
      keys = [||];
      entries = [||];
      prev = [||];
      next = [||];
      head = -1;
      tail = -1;
      free = -1;
      used = 0;
      len = 0;
      recording = None;
      stats =
        {
          hits = 0;
          misses = 0;
          stale = 0;
          invalidations = 0;
          uncacheable = 0;
          inserts = 0;
          evictions = 0;
        };
      refused = Array.make (Array.length reasons) 0;
      plans = Array.make plan_memo_size [||];
      plan_next = 0;
    }
  in
  clear t;
  arm t ~tables ~registers;
  t

(* --- Slots and LRU plumbing --- *)

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p

let push_front t s =
  t.prev.(s) <- -1;
  t.next.(s) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- s else t.tail <- s;
  t.head <- s

let touch t s =
  if t.head <> s then begin
    unlink t s;
    push_front t s
  end

(* A free slot, growing the arrays when every slot is taken. Only called
   with [len < capacity], so they never grow past [capacity]. *)
let take_slot t =
  if t.free >= 0 then begin
    let s = t.free in
    t.free <- t.next.(s);
    s
  end
  else begin
    let n = Array.length t.keys in
    if t.used = n then begin
      let n' = min t.capacity (2 * n) in
      let grow a fill =
        let a' = Array.make n' fill in
        Array.blit a 0 a' 0 n;
        a'
      in
      t.keys <- grow t.keys "";
      t.entries <- grow t.entries no_entry;
      t.prev <- grow t.prev (-1);
      t.next <- grow t.next (-1)
    end;
    let s = t.used in
    t.used <- s + 1;
    s
  end

let remove t s =
  unlink t s;
  Hashtbl.remove t.tbl t.keys.(s);
  t.keys.(s) <- "";
  t.entries.(s) <- no_entry;
  t.next.(s) <- t.free;
  t.free <- s;
  t.len <- t.len - 1

(* Keys most-recent-first — the LRU order, for tests. *)
let keys_mru t =
  let rec go acc s = if s < 0 then List.rev acc else go (t.keys.(s) :: acc) t.next.(s) in
  go [] t.head

(* --- Lookup / commit / abort --- *)

(* Is every table of [plan] from [i] on still at the epoch it was read
   at? A top-level function, so a hit's check allocates nothing. *)
let rec current (plan : plan) i =
  i = Array.length plan
  || (let d = plan.(i) in
      P4ir.Table.epoch d.dtbl = d.tepoch && current plan (i + 1))

type hit = { verdict : Asic.Chip.verdict; latency_ns : float }

let miss t key =
  t.stats.misses <- t.stats.misses + 1;
  (* Arm recording for the full-pipeline run that follows. *)
  t.recording <- Some { key; r_tdeps = []; touched_register = false };
  None

let lookup t ~in_port frame =
  let key = key_of ~in_port frame in
  (* [find], not [find_opt]: a hit allocates no [Some], and a miss's
     raise is small beside the pipeline walk that follows it. *)
  match Hashtbl.find t.tbl key with
  | exception Not_found -> miss t key
  | s ->
      let e = t.entries.(s) in
      if current e.plan 0 then begin
        touch t s;
        t.stats.hits <- t.stats.hits + 1;
        let verdict =
          match e.verdict with
          | V_drop -> Asic.Chip.Dropped
          | V_emit { port; prefix } ->
              let hlen = String.length key - 2 in
              let plen = Bytes.length frame - hlen in
              let pxlen = Bytes.length prefix in
              let out = Bytes.create (pxlen + plen) in
              Bytes.blit prefix 0 out 0 pxlen;
              Bytes.blit frame hlen out pxlen plen;
              Asic.Chip.Emitted { port; frame = out }
        in
        Some { verdict; latency_ns = e.latency_ns }
      end
      else begin
        (* A table mutation bumped a dependency's epoch. *)
        remove t s;
        t.stats.invalidations <- t.stats.invalidations + 1;
        miss t key
      end

let abort t = t.recording <- None

(* Does [out] end with the input frame's payload (the bytes past the
   keyed header region)? Required for the prefix+payload reconstruction
   on hits; a chain that consumed or rewrote payload bytes (meaning the
   chip parsed deeper than the walk estimated) fails this and stays
   uncacheable. *)
(* Do [n] bytes of [a] from [ai] equal those of [b] from [bi]? Eight at
   a time, then bytewise. *)
let rec same_bytes a ai b bi n =
  if n >= 8 then
    Int64.equal (Bytes.get_int64_le a ai) (Bytes.get_int64_le b bi)
    && same_bytes a (ai + 8) b (bi + 8) (n - 8)
  else
    n <= 0
    || (Bytes.get a ai = Bytes.get b bi && same_bytes a (ai + 1) b (bi + 1) (n - 1))

let payload_preserved ~frame ~hlen out =
  let plen = Bytes.length frame - hlen in
  let olen = Bytes.length out in
  olen >= plen && same_bytes out (olen - plen) frame hlen plen

(* Does a recorded list (most recent dependency first) equal a plan,
   element for element? Allocates nothing. *)
let rec same_plan l (p : plan) i =
  match l with
  | [] -> i = Array.length p
  | d :: l ->
      i < Array.length p
      && p.(i).dtbl == d.dtbl
      && p.(i).tepoch = d.tepoch
      && same_plan l p (i + 1)

(* The memo's plan equal to the recorded [deps], else a new plan, which
   takes the memo slot of the oldest. *)
let rec intern t deps k =
  if k = plan_memo_size then begin
    let p = Array.of_list deps in
    t.plans.(t.plan_next) <- p;
    t.plan_next <- (t.plan_next + 1) mod plan_memo_size;
    p
  end
  else
    let p = t.plans.(k) in
    if same_plan deps p 0 then p else intern t deps (k + 1)

let insert t key entry =
  (match Hashtbl.find t.tbl key with
  | old -> remove t old
  | exception Not_found -> ());
  if t.len >= t.capacity && t.tail >= 0 then begin
    remove t t.tail;
    t.stats.evictions <- t.stats.evictions + 1
  end;
  let s = take_slot t in
  t.keys.(s) <- key;
  t.entries.(s) <- entry;
  Hashtbl.replace t.tbl key s;
  push_front t s;
  t.len <- t.len + 1;
  t.stats.inserts <- t.stats.inserts + 1

let refuse t reason =
  t.stats.uncacheable <- t.stats.uncacheable + 1;
  t.refused.(reason) <- t.refused.(reason) + 1

let commit t ~frame ~(verdict : Asic.Chip.verdict) ~cpu_round_trips ~recircs
    ~resubmits ~mirrored ~latency_ns =
  match t.recording with
  | None -> ()
  | Some r -> (
      abort t;
      let hlen = String.length r.key - 2 in
      let admit v = insert t r.key { verdict = v; latency_ns; plan = intern t r.r_tdeps 0 } in
      if cpu_round_trips > 0 then refuse t r_punt
      else if recircs > 0 then refuse t r_recirc
      else if resubmits > 0 then refuse t r_resubmit
      else if mirrored then refuse t r_mirror
      else if r.touched_register then refuse t r_register
      else
        match verdict with
        | Asic.Chip.To_cpu _ -> refuse t r_to_cpu
        | Asic.Chip.Dropped -> admit V_drop
        | Asic.Chip.Emitted { port; frame = out } ->
            if payload_preserved ~frame ~hlen out then
              let plen = Bytes.length frame - hlen in
              admit (V_emit { port; prefix = Bytes.sub out 0 (Bytes.length out - plen) })
            else refuse t r_payload)

let uncacheable_by_reason t =
  Array.to_list (Array.mapi (fun i n -> (reasons.(i), n)) t.refused)

(* Fold a replica cache's tallies into [into]'s stats. Entries stay
   where they are — per-shard caches share nothing — so this only
   keeps runtime-wide hit/miss accounting alive when the parallel
   merge tears the replicas down. *)
let merge_stats ~into src =
  let a = into.stats and b = src.stats in
  a.hits <- a.hits + b.hits;
  a.misses <- a.misses + b.misses;
  a.invalidations <- a.invalidations + b.invalidations;
  a.uncacheable <- a.uncacheable + b.uncacheable;
  a.inserts <- a.inserts + b.inserts;
  a.evictions <- a.evictions + b.evictions;
  Array.iteri (fun i n -> into.refused.(i) <- into.refused.(i) + n) src.refused
