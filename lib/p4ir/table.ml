type match_kind = Exact | Ternary | Lpm | Range
type key = { field : Fieldref.t; kind : match_kind; width : int }

type pattern =
  | M_exact of Bitval.t
  | M_ternary of { value : Bitval.t; mask : Bitval.t }
  | M_lpm of { value : Bitval.t; prefix_len : int }
  | M_range of { lo : Bitval.t; hi : Bitval.t }
  | M_any

type entry = {
  priority : int;
  patterns : pattern list;
  action : string;
  args : Bitval.t list;
}

(* A pattern lowered against the declared key width to immediate ints:
   masks (including LPM prefix masks) folded to (value, mask) pairs, so
   the linear partition compares words instead of re-deriving masks per
   candidate. Sound because the looked-up value carries the declared
   width (at most 62 bits, so it is a non-negative int): a binding reads
   each key from a cell of exactly that width ({!binding}).
   Pattern values beyond 62 bits can never equal such a key: they lower
   to -1 ([Hdr.cell_of_int64]), which no key value is. *)
type ipat =
  | I_any
  | I_eq of int
  | I_masked of int * int  (* pre-masked value, mask *)
  | I_range of int * int

let int_key v = Hdr.cell_of_int64 (Bitval.to_int64 v)

(* Key bits above 62 are always zero, so only the mask's low bits
   matter. *)
let masked_pat v m =
  I_masked (int_key (Bitval.logand v m), Int64.to_int (Bitval.to_int64 m) land Hdr.mask Hdr.max_width)

(* The prefix mask of an LPM key of [w] bits, [w] at most 62; the key
   value masked with it needs no resize first. *)
let lpm_mask w plen = Hdr.mask w lxor Hdr.mask (w - plen)
let lpm_fits kw plen = 0 <= plen && plen <= kw && kw <= Hdr.max_width
let lpm_masked v m = Int64.to_int (Bitval.to_int64 v) land m

let compile_pattern kw p =
  match p with
  | M_any -> I_any
  | M_exact v -> I_eq (int_key v)
  | M_ternary { value; mask } -> masked_pat value mask
  | M_lpm { value; prefix_len } when lpm_fits kw prefix_len ->
      let m = lpm_mask kw prefix_len in
      I_masked (lpm_masked value m, m)
  | M_lpm { value; prefix_len } ->
      masked_pat (Bitval.resize value kw) (Bitval.mask_of_prefix ~width:kw prefix_len)
  | M_range { lo; hi } -> (
      match (int_key lo, int_key hi) with
      | -1, _ -> I_range (1, 0)
      | lo, -1 -> I_range (lo, max_int)
      | lo, hi -> I_range (lo, hi))

let ipat_matches p v =
  match p with
  | I_any -> true
  | I_eq pv -> v = pv
  | I_masked (pv, m) -> v land m = pv
  | I_range (lo, hi) -> lo <= v && v <= hi

(* An installed entry with everything a lookup needs precomputed:
   insertion sequence (tie-break), total prefix length (tie-break),
   lowered patterns, the action's position among the table's declared
   actions and the action data lowered to ints. As in P4, the actions
   belong to the table and an entry carries only its action data: every
   entry naming action [ai] runs the binding's one compiled closure for
   it. The naive path recomputed all of this per candidate per packet.

   [e]/[ai]/[bound] are mutable for {!mod_entry}: a modify rebinds the
   action data in place — the match key (priority and patterns, the
   entry's identity) never changes after install, so the index
   partitions need no maintenance beyond the epoch bump. Only a
   body's sole holder writes them ({!own_body}). [e], [ipats] and
   [bound] are never mutated in place, which is what lets a private
   body copy share them. *)
type ientry = {
  mutable e : entry;
  seq : int;
  (* Dense, reused after a delete: the cell that counts this entry's
     hits in each handle's hit array ([ehits]). A private body copy
     keeps every entry's slot, so a handle's tallies survive it. *)
  hit_slot : int;
  lpm : int;
  ipats : ipat array;
  mutable ai : int;
  mutable bound : int array;
}

(* A free slot of a body's entry array, and a lookup's "no match yet". *)
let none =
  {
    e = { priority = min_int; patterns = []; action = ""; args = [] };
    seq = -1;
    hit_slot = -1;
    lpm = 0;
    ipats = [||];
    ai = 0;
    bound = [||];
  }

(* Index hash finaliser: multiply by an odd 61-bit constant, then fold
   the high half onto the low half. [Hashtbl] picks a bucket from the
   low bits, and the keys a table holds are often equal there — masked
   prefixes end in zero bytes, so without the mix every /24 of a FIB
   lands in one bucket. Multiplying spreads each key bit upwards; the
   shift brings the spread back down. *)
let mix h =
  let h = h * 0x1E3779B97F4A7C15 in
  (h lxor (h lsr 32)) land max_int

module HA = Hashtbl.Make (struct
  type t = int array

  let rec equal_from a b i = i < 0 || (a.(i) = b.(i) && equal_from a b (i - 1))
  let equal a b = Array.length a = Array.length b && equal_from a b (Array.length a - 1)

  (* Direct word mixing — the polymorphic hash stops after a few words. *)
  let hash a =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      h := mix (!h lxor a.(i))
    done;
    !h
end)

module HI = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash = mix
end)

(* One prefix length of the single-key LPM index. [gmask] is the prefix
   mask over the declared key width; buckets key on the masked value. *)
type lpm_group = { plen : int; gmask : int; buckets : ientry list HI.t }

(* Staged index, maintained incrementally on insert AND delete:
   - [exact1]: all-[M_exact] entries of a single-key table hashed on
     the bare value, and those of a packed table ([packed]: no key,
     or several whose widths sum to at most 62 bits) on their values
     packed into one int — the common case (FIB next-hop, session,
     Dejavu's framework tables) skips the key array entirely.
   - [exact]: all-[M_exact] entries of wider multi-key tables, hashed
     on the concatenated key values (numeric, like
     [Bitval.equal_value]).
   - [lpm]: single-key [M_lpm] entries bucketed by prefix length,
     probed longest-first.
   - [linear]: everything else (ternary, range, wildcards, mixed
     multi-key prefixes) — scanned with precomputed entry data.
   A bucket is the entry list itself, rewritten with [replace]: a probe
   reaches its entries in one load. Deletion unlinks one entry from its
   partition bucket (and drops emptied buckets / prefix-length groups);
   no bulk rebuild. *)
type index = {
  exact1 : ientry list HI.t;
  exact : ientry list HA.t;
  mutable lpm : lpm_group list; (* sorted by plen, longest first *)
  mutable linear : ientry list;
}

type stats = { mutable hits : int; mutable misses : int }

(* The table's fast path bound to one PHV layout — the layout of the
   pipelet that applies it ({!bind}). Key reads are cells of that
   layout, each of its key's declared width, and each declared action
   is compiled once against it, by position. *)
type binding = {
  blay : Phv.layout;
  kcells : int array;
  kscratch : int array;  (* key values: the multi-key exact probe, linear scans *)
  runs : Action.compiled array;
}

(* The entries and their index: what a {!copy} shares with its source
   until one side writes. Seqs are unique for the lifetime of a table —
   [clear] and [del_entry] never reset [next_seq], and a private copy
   keeps it — so a replica made with {!copy} can always be paired back
   entry-for-entry by {!merge_stats_from}, even across churn: a slot
   reused after a delete holds an entry of another seq. *)
type body = {
  (* The installed entries by hit slot, [none] where a slot is free:
     the source of truth. *)
  mutable by_slot : ientry array;
  mutable count : int;
  mutable next_seq : int;
  index : index;
  (* Hit-slot allocator, a bitmap: slot [s] is taken while bit
     [s land 31] of [used.(s lsr 5)] is set. [slots] is one past the
     highest slot ever taken; every word below [low] is full. *)
  mutable slots : int;
  mutable used : int array;
  mutable low : int;
  (* How many handle states hold this body. Atomic because several
     domains copy one table at once; a write through a state that is
     not the only holder first takes a private copy ({!own_body}). *)
  holders : int Atomic.t;
}

(* Per-handle state, shared by {!rename}d handles and fresh in a
   {!copy}: the body it reads, its binding, its telemetry, its
   invalidation epoch and its lookup recorder. *)
type store = {
  mutable body : body;
  (* [body]'s index, held here too so a lookup reaches it in one
     load; reassigned whenever [body] is. *)
  mutable index : index;
  (* Compiled on {!bind}, or for the layout of the first PHV looked
     up; a PHV of another layout recompiles it for that layout. A
     {!copy} starts unbound and compiles its own: compiled closures own
     scratch buffers, which must not be shared across domains. *)
  mutable bnd : binding option;
  (* [None] = telemetry off: both lookup paths pay one immediate-field
     match and nothing else. *)
  mutable stats : stats option;
  (* Per-entry hits by slot, covering the body's slots while stats are
     on; [||] while they are off. Here rather than in the entry, so
     handles that share a body count apart. *)
  mutable ehits : int array;
  (* Invalidation epoch (bumped on every successful mutation) and the
     lookup recorder a memoization layer arms to learn which tables a
     packet's verdict depended on. *)
  mutable epoch : int;
  mutable on_lookup : (unit -> unit) option;
}

(* The handle: the table's definition and its state. {!rename}d
   handles share the state, so entries installed through any of them
   are visible — and indexed — through all of them. *)
type t = {
  name : string;
  keys : key list;
  kfields : Fieldref.t array;
  kwidths : int array;
  (* No key, or two or more whose widths sum to at most 62 bits: an
     all-exact entry, and a lookup's key, pack into one int, first key
     in the highest bits. *)
  packed : bool;
  actions : Action.t list;
  acts : Action.t array;
  default : string * Bitval.t list;
  default_ai : int;
  default_bound : int array;
  max_size : int;
  store : store;
}

let fresh_index () =
  { exact1 = HI.create 16; exact = HA.create 16; lpm = []; linear = [] }

let find_ai acts aname =
  let rec go i =
    if i >= Array.length acts then None
    else if String.equal acts.(i).Action.name aname then Some i
    else go (i + 1)
  in
  go 0

let empty_body next_seq =
  {
    by_slot = [||];
    count = 0;
    next_seq;
    index = fresh_index ();
    slots = 0;
    used = [||];
    low = 0;
    holders = Atomic.make 1;
  }

let fresh_store body =
  {
    body;
    index = body.index;
    bnd = None;
    stats = None;
    ehits = [||];
    epoch = 0;
    on_lookup = None;
  }

let make ~name ~keys ~actions ~default ?(max_size = 1024) () =
  let dname, dargs = default in
  let acts = Array.of_list actions in
  let default_ai =
    match find_ai acts dname with
    | None ->
        invalid_arg
          (Printf.sprintf "Table.make %s: default action %s not declared" name
             dname)
    | Some ai ->
        if List.length acts.(ai).Action.params <> List.length dargs then
          invalid_arg
            (Printf.sprintf "Table.make %s: default action %s arity mismatch"
               name dname);
        ai
  in
  let kwidths = Array.of_list (List.map (fun k -> k.width) keys) in
  {
    name;
    keys;
    kfields = Array.of_list (List.map (fun k -> k.field) keys);
    kwidths;
    packed =
      Array.length kwidths <> 1
      && Array.fold_left ( + ) 0 kwidths <= Hdr.max_width;
    actions;
    acts;
    default;
    default_ai;
    default_bound = Action.bind_ints acts.(default_ai) dargs;
    max_size;
    store = fresh_store (empty_body 0);
  }

(* The handle's binding for [lay], compiled in place of the one it holds
   when that was for another layout. *)
let binding t lay =
  match t.store.bnd with
  | Some b when b.blay == lay -> b
  | Some _ | None ->
      let key_cell r w =
        let c = Phv.field_cell lay r in
        if Phv.field_width lay r <> w then
          invalid_arg
            (Printf.sprintf "Table %s: key %s is bit<%d>, its field bit<%d>" t.name
               (Fieldref.to_string r) w (Phv.field_width lay r));
        c
      in
      let kcells = Array.map2 key_cell t.kfields t.kwidths in
      let b =
        {
          blay = lay;
          kcells;
          kscratch = Array.make (Array.length kcells) 0;
          runs = Array.map (fun act -> Action.compile ~layout:lay act) t.acts;
        }
      in
      t.store.bnd <- Some b;
      b

let bind t lay = ignore (binding t lay)

let name t = t.name
let keys t = t.keys
let actions t = t.actions
let max_size t = t.max_size

let ientries_by_seq t =
  Array.fold_left (fun acc ie -> if ie == none then acc else ie :: acc) []
    t.store.body.by_slot
  |> List.sort (fun a b -> compare a.seq b.seq)

let entries t = List.map (fun ie -> ie.e) (ientries_by_seq t)
let size t = t.store.body.count
let rename t name = { t with name }

let find_action t aname = Option.map (fun ai -> t.acts.(ai)) (find_ai t.acts aname)

let pattern_kind_ok kind pattern =
  match (kind, pattern) with
  | _, M_any -> true
  | Exact, M_exact _ -> true
  | Ternary, (M_exact _ | M_ternary _) -> true
  | Lpm, (M_exact _ | M_lpm _) -> true
  | Range, (M_exact _ | M_range _) -> true
  | (Exact | Ternary | Lpm | Range), _ -> false

let lpm_len entry =
  (* Longest prefix across LPM patterns; exact = full width. *)
  List.fold_left
    (fun acc p ->
      match p with
      | M_lpm { prefix_len; _ } -> acc + prefix_len
      | M_exact v -> acc + Bitval.width v
      | M_ternary _ | M_range _ | M_any -> acc)
    0 entry.patterns

(* --- Entry identity ---

   [del_entry]/[mod_entry] name the entry to touch by its match key:
   the (priority, patterns) pair, compared by match semantics —
   numeric value equality ([Bitval.equal_value], width-insensitive),
   ternary values under their masks, LPM values under their prefix
   masks. Two patterns equal under [pattern_equal] match exactly the
   same key values, so the identity is the one a switch RPC (P4Runtime
   MODIFY/DELETE) would use. *)

let pattern_equal a b =
  match (a, b) with
  | M_any, M_any -> true
  | M_exact x, M_exact y -> Bitval.equal_value x y
  | M_ternary { value = v1; mask = m1 }, M_ternary { value = v2; mask = m2 } ->
      Bitval.equal_value m1 m2
      && Bitval.equal_value (Bitval.logand v1 m1) (Bitval.logand v2 m2)
  | M_lpm { value = v1; prefix_len = p1 }, M_lpm { value = v2; prefix_len = p2 }
    ->
      p1 = p2
      &&
      let w = max (Bitval.width v1) (Bitval.width v2) in
      let m = Bitval.mask_of_prefix ~width:w p1 in
      Bitval.equal_value
        (Bitval.logand (Bitval.resize v1 w) m)
        (Bitval.logand (Bitval.resize v2 w) m)
  | M_range { lo = l1; hi = h1 }, M_range { lo = l2; hi = h2 } ->
      Bitval.equal_value l1 l2 && Bitval.equal_value h1 h2
  | (M_exact _ | M_ternary _ | M_lpm _ | M_range _ | M_any), _ -> false

let entry_key_equal a b =
  a.priority = b.priority
  && List.length a.patterns = List.length b.patterns
  && List.for_all2 pattern_equal a.patterns b.patterns

(* --- Index partition routing ---

   One classifier shared by insert, delete and the del/mod probe, so an
   entry is always unlinked from (or found in) exactly the bucket that
   indexed it. The bucket keys are numeric ([Bitval.to_int64], masked
   values) — width-insensitive like [pattern_equal]. *)

type slot =
  | S_exact1 of int
  | S_exact of int array
  | S_lpm of int * int * int  (* plen, gmask, masked value *)
  | S_linear

(* The entry's exact values packed like a lookup's key, or [None] when
   one is wider than its key: such a value never matches, and packed it
   would alias another key's bits, so the entry stays in [linear]. *)
let pack t patterns =
  let rec go acc i = function
    | [] -> Some acc
    | M_exact v :: rest ->
        let x = int_key v and w = t.kwidths.(i) in
        if x < 0 || x > Hdr.mask w then None else go ((acc lsl w) lor x) (i + 1) rest
    | (M_ternary _ | M_lpm _ | M_range _ | M_any) :: _ -> None
  in
  go 0 0 patterns

let slot_of t patterns =
  let all_exact =
    List.for_all (function M_exact _ -> true | _ -> false) patterns
  in
  if all_exact then
    match patterns with
    | _ when t.packed -> (
        match pack t patterns with Some k -> S_exact1 k | None -> S_linear)
    | [ M_exact v ] -> S_exact1 (int_key v)
    | _ ->
        S_exact
          (Array.of_list
             (List.map (function M_exact v -> int_key v | _ -> assert false) patterns))
  else
    match (patterns, t.kwidths) with
    | [ M_lpm { value; prefix_len } ], [| w |] when lpm_fits w prefix_len ->
        let gmask = lpm_mask w prefix_len in
        S_lpm (prefix_len, gmask, lpm_masked value gmask)
    | _ -> S_linear

let bucket_push find replace tbl key ie =
  replace tbl key (match find tbl key with Some l -> ie :: l | None -> [ ie ])

(* Drop [ie] (by physical identity) from its bucket; remove the binding
   when the bucket empties so stale keys don't accumulate under churn. *)
let bucket_drop find replace remove tbl key ie =
  match find tbl key with
  | None -> ()
  | Some l -> (
      match List.filter (fun x -> x != ie) l with
      | [] -> remove tbl key
      | l -> replace tbl key l)

let lpm_group idx plen = List.find_opt (fun g -> g.plen = plen) idx.lpm

(* Route one installed entry into its index partition. *)
let index_entry t ie =
  let idx = t.store.index in
  match slot_of t ie.e.patterns with
  | S_exact1 k -> bucket_push HI.find_opt HI.replace idx.exact1 k ie
  | S_exact k -> bucket_push HA.find_opt HA.replace idx.exact k ie
  | S_lpm (plen, gmask, masked) ->
      let group =
        match lpm_group idx plen with
        | Some g -> g
        | None ->
            let g = { plen; gmask; buckets = HI.create 16 } in
            idx.lpm <-
              List.sort (fun a b -> compare b.plen a.plen) (g :: idx.lpm);
            g
      in
      bucket_push HI.find_opt HI.replace group.buckets masked ie
  | S_linear -> idx.linear <- ie :: idx.linear

(* Unlink one installed entry from the partition [route] names — the
   route {!locate} found it by: one bucket probe, no rebuild of anything
   else, and no second walk of the entry's patterns. An emptied LPM
   prefix-length group is dropped so the probe loop's group list stays
   proportional to the live prefix lengths. *)
let unindex_entry t route ie =
  let idx = t.store.index in
  match route with
  | S_exact1 k -> bucket_drop HI.find_opt HI.replace HI.remove idx.exact1 k ie
  | S_exact k -> bucket_drop HA.find_opt HA.replace HA.remove idx.exact k ie
  | S_lpm (plen, _, masked) -> (
      match lpm_group idx plen with
      | None -> ()
      | Some g ->
          bucket_drop HI.find_opt HI.replace HI.remove g.buckets masked ie;
          if HI.length g.buckets = 0 then
            idx.lpm <- List.filter (fun g' -> not (g' == g)) idx.lpm)
  | S_linear -> idx.linear <- List.filter (fun x -> not (x == ie)) idx.linear

let bucket idx = function
  | S_exact1 k -> HI.find_opt idx.exact1 k
  | S_exact k -> HA.find_opt idx.exact k
  | S_lpm (plen, _, masked) ->
      Option.bind (lpm_group idx plen) (fun g -> HI.find_opt g.buckets masked)
  | S_linear -> Some idx.linear

(* The installed entry with [entry]'s match key, in the bucket that
   [route] — [entry]'s own — names: a hash-bucket probe for exact/LPM
   shapes, a scan only for the linear partition. In an [exact1] bucket
   whose key is at least 0 the key fixes every pattern value —
   [int_key] is injective on the values that fit in 62 bits, and so is
   [pack] — so the priority alone tells its entries apart, and their
   cold patterns are never read. Bucket [-1] holds every wider value
   and compares patterns. *)
let locate t route entry =
  let same =
    match route with
    | S_exact1 k when k >= 0 -> fun ie -> ie.e.priority = entry.priority
    | S_exact1 _ | S_exact _ | S_lpm _ | S_linear ->
        fun ie -> entry_key_equal ie.e entry
  in
  Option.bind (bucket t.store.index route) (List.find_opt same)

let validate_shape t entry =
  if List.length entry.patterns <> List.length t.keys then
    Error
      (Printf.sprintf "table %s: %d patterns for %d keys" t.name
         (List.length entry.patterns) (List.length t.keys))
  else if
    not (List.for_all2 (fun k p -> pattern_kind_ok k.kind p) t.keys entry.patterns)
  then Error (Printf.sprintf "table %s: pattern kind mismatch" t.name)
  else Ok ()

let validate_action t entry =
  match find_ai t.acts entry.action with
  | None ->
      Error (Printf.sprintf "table %s: unknown action %s" t.name entry.action)
  | Some ai ->
      let params = t.acts.(ai).Action.params in
      if List.length params <> List.length entry.args then
        Error
          (Printf.sprintf "table %s: action %s expects %d args, got %d" t.name
             entry.action (List.length params) (List.length entry.args))
      else Ok ai

(* --- Copy on write ---

   A {!copy} shares its source's body and counts itself as a holder.
   The first write through a handle that is not its body's only holder
   takes a private copy of the body first; an only holder writes in
   place. The copy only reads the shared body — the index by
   [Hashtbl.copy], never [iter] or [fold], which flip a traversal flag
   in the table they walk — because handles on other domains may be
   reading it, or copying it, at the same time. *)

(* A private copy of [b]: the entry array mapped slot by slot, each
   entry a fresh mutable record sharing the shared entry's immutable
   data (entry, lowered patterns, bound arguments, prefix length) and
   keeping its seq and hit slot, and the index copied partition by
   partition over the fresh records, each bucket in its order — so a
   del or mod of a duplicated match key picks the entry the source
   would. *)
let copy_body b =
  let by_slot =
    Array.map (fun ie -> if ie == none then none else { ie with e = ie.e }) b.by_slot
  in
  let fresh l = List.map (fun ie -> by_slot.(ie.hit_slot)) l in
  let buckets copy map_inplace tbl =
    let c = copy tbl in
    map_inplace (fun _ l -> Some (fresh l)) c;
    c
  in
  let idx = b.index in
  {
    by_slot;
    count = b.count;
    next_seq = b.next_seq;
    index =
      {
        exact1 = buckets HI.copy HI.filter_map_inplace idx.exact1;
        exact = buckets HA.copy HA.filter_map_inplace idx.exact;
        lpm =
          List.map
            (fun g -> { g with buckets = buckets HI.copy HI.filter_map_inplace g.buckets })
            idx.lpm;
        linear = fresh idx.linear;
      };
    slots = b.slots;
    used = Array.copy b.used;
    low = b.low;
    holders = Atomic.make 1;
  }

(* The body [t] may write: its own, made private first when another
   handle still holds it. *)
let own_body t =
  let s = t.store in
  let b = s.body in
  if Atomic.get b.holders > 1 then begin
    s.body <- copy_body b;
    s.index <- s.body.index;
    Atomic.decr b.holders
  end;
  s.body

(* [own_body], then [ie] — found by the caller's probe of the body [t]
   held before — as its record in the body [t] now writes. *)
let own_entry t ie =
  let b = t.store.body in
  let b' = own_body t in
  if b' == b then ie else b'.by_slot.(ie.hit_slot)

(* The position of the lowest clear bit of a 32-bit word that has
   one. *)
let lowest_clear w =
  let rec go k = if w land (1 lsl k) = 0 then k else go (k + 1) in
  go 0

(* [a], or a copy doubled past [i] with [fill] beyond [a]'s cells. *)
let cover a i fill =
  if i < Array.length a then a
  else begin
    let grown = Array.make (max 16 (2 * i)) fill in
    Array.blit a 0 grown 0 (Array.length a);
    grown
  end

(* The lowest free slot, with the entry array grown to cover it: one
   bit per slot keeps the allocator at a thirty-second of a word per
   slot however far the table has shrunk from its peak. *)
let take_slot b =
  let n = Array.length b.used in
  let i = ref b.low in
  while !i < n && b.used.(!i) = 0xFFFFFFFF do
    incr i
  done;
  let i = !i in
  b.low <- i;
  if i = n then begin
    let grown = Array.make (max 4 (2 * n)) 0 in
    Array.blit b.used 0 grown 0 n;
    b.used <- grown
  end;
  let w = b.used.(i) in
  let slot = (i lsl 5) lor lowest_clear w in
  b.used.(i) <- w lor (1 lsl (slot land 31));
  if slot >= b.slots then b.slots <- slot + 1;
  b.by_slot <- cover b.by_slot slot none;
  slot

let free_slot b slot =
  let i = slot lsr 5 in
  b.used.(i) <- b.used.(i) land lnot (1 lsl (slot land 31));
  if i < b.low then b.low <- i

(* A fresh entry's tally starts at zero, in a hit array grown to cover
   its slot when stats are on. *)
let zero_hits s slot =
  match s.stats with
  | None -> ()
  | Some _ ->
      if slot >= Array.length s.ehits then s.ehits <- cover s.ehits slot 0
      else s.ehits.(slot) <- 0

(* Install a validated entry under the next sequence number. The entry
   names its action by position: nothing is compiled here. *)
let install t entry ai =
  let b = own_body t in
  let seq = b.next_seq in
  let hit_slot = take_slot b in
  let ie =
    {
      e = entry;
      seq;
      hit_slot;
      lpm = lpm_len entry;
      ipats =
        Array.of_list
          (List.map2 (fun k p -> compile_pattern k.width p) t.keys entry.patterns);
      ai;
      bound = Action.bind_ints t.acts.(ai) entry.args;
    }
  in
  b.by_slot.(hit_slot) <- ie;
  b.count <- b.count + 1;
  b.next_seq <- seq + 1;
  index_entry t ie;
  zero_hits t.store hit_slot;
  t.store.epoch <- t.store.epoch + 1

let add_entry t entry =
  if size t >= t.max_size then
    Error (Printf.sprintf "table %s: capacity %d exceeded" t.name t.max_size)
  else
    match validate_shape t entry with
    | Error _ as e -> e
    | Ok () -> (
        match validate_action t entry with
        | Error e -> Error e
        | Ok ai ->
            install t entry ai;
            Ok ())

let add_entries t entries =
  List.fold_left
    (fun acc e -> Result.bind acc (fun () -> add_entry t e))
    (Ok ()) entries

let del_entry t entry =
  match validate_shape t entry with
  | Error _ as e -> e
  | Ok () -> (
      let route = slot_of t entry.patterns in
      match locate t route entry with
      | None ->
          Error
            (Printf.sprintf
               "table %s: no entry with priority %d and these patterns" t.name
               entry.priority)
      | Some ie ->
          let ie = own_entry t ie in
          unindex_entry t route ie;
          let b = t.store.body in
          b.by_slot.(ie.hit_slot) <- none;
          free_slot b ie.hit_slot;
          b.count <- b.count - 1;
          t.store.epoch <- t.store.epoch + 1;
          Ok ())

let mod_entry t entry =
  match validate_shape t entry with
  | Error _ as e -> e
  | Ok () -> (
      match validate_action t entry with
      | Error e -> Error e
      | Ok ai -> (
          match locate t (slot_of t entry.patterns) entry with
          | None ->
              Error
                (Printf.sprintf
                   "table %s: no entry with priority %d and these patterns"
                   t.name entry.priority)
          | Some ie ->
              (* The stored match key stays canonical (as first
                 installed); only the action binding changes. Seq and
                 the per-entry hit tally carry over — it is the same
                 logical entry. *)
              let ie = own_entry t ie in
              ie.e <- { ie.e with action = entry.action; args = entry.args };
              ie.ai <- ai;
              ie.bound <- Action.bind_ints t.acts.(ai) entry.args;
              t.store.epoch <- t.store.epoch + 1;
              Ok ()))

(* O(1): the copy shares [t]'s body ({!own_body} makes it private on the
   first write through either side) and gets fresh handle state. Seqs
   and [next_seq] are the source's, so the copy resolves every lookup
   tie-break the way the original does AND stays pairable by seq
   ({!merge_stats_from}) even after either side churns. *)
let copy t =
  let b = t.store.body in
  Atomic.incr b.holders;
  { t with store = fresh_store b }

(* An empty body in place of the one held, which is left uncopied to
   its other holders, if any. [next_seq] is deliberately NOT reset:
   seqs must stay unique for the table's lifetime so stats merged by
   seq never pair an old entry's tally with an unrelated later
   entry. *)
let clear t =
  let s = t.store in
  Atomic.decr s.body.holders;
  s.body <- empty_body s.body.next_seq;
  s.index <- s.body.index;
  s.epoch <- s.epoch + 1

let epoch t = t.store.epoch
let set_on_lookup t f = t.store.on_lookup <- Some f

let pattern_matches pattern value =
  match pattern with
  | M_any -> true
  | M_exact v -> Bitval.equal_value v value
  | M_ternary { value = v; mask } ->
      Bitval.equal_value (Bitval.logand value mask) (Bitval.logand v mask)
  | M_lpm { value = v; prefix_len } ->
      let mask = Bitval.mask_of_prefix ~width:(Bitval.width value) prefix_len in
      Bitval.equal_value (Bitval.logand value mask) (Bitval.logand (Bitval.resize v (Bitval.width value)) mask)
  | M_range { lo; hi } -> Bitval.le lo value && Bitval.le value hi

let matches entry values =
  List.for_all2 pattern_matches entry.patterns values

(* --- Reference lookup: the pre-index linear scan, kept verbatim as the
   oracle the indexed path is QCheck-equivalence-tested against. The
   scan order differs (slot order) but [better] is a strict total
   order — sequence numbers are distinct — so the winner is
   order-independent. --- *)

(* Stats hooks shared by both lookup paths: one immediate-field match
   when telemetry is off. [stat_hit] is inlined: a call per hit costs
   the indexed path more than the count itself. *)
let[@inline] stat_hit t ie =
  match t.store.stats with
  | None -> ()
  | Some s ->
      s.hits <- s.hits + 1;
      let h = t.store.ehits in
      h.(ie.hit_slot) <- h.(ie.hit_slot) + 1

let stat_miss t =
  match t.store.stats with
  | None -> ()
  | Some s -> s.misses <- s.misses + 1

let lookup_reference_values t values =
  (match t.store.on_lookup with Some f -> f () | None -> ());
  let candidates =
    Array.fold_left
      (fun acc ie -> if ie != none && matches ie.e values then ie :: acc else acc)
      [] t.store.body.by_slot
  in
  let better a b =
    let e1 = a.e and e2 = b.e in
    if e1.priority <> e2.priority then e1.priority > e2.priority
    else if lpm_len e1 <> lpm_len e2 then lpm_len e1 > lpm_len e2
    else a.seq < b.seq
  in
  match candidates with
  | [] ->
      stat_miss t;
      `Miss
  | first :: rest ->
      let best = List.fold_left (fun b c -> if better c b then c else b) first rest in
      stat_hit t best;
      `Hit best.e

let lookup_reference t phv =
  lookup_reference_values t (List.map (fun k -> Phv.get phv k.field) t.keys)

(* --- Indexed lookup ---

   Candidates fold into [best], with [none] standing for "no match yet".
   Buckets are probed with [find_opt], not [find]: most probes miss, and
   a raised [Not_found] costs several times a hit's [Some]. *)

let ibetter a b =
  if a.e.priority <> b.e.priority then a.e.priority > b.e.priority
  else if a.lpm <> b.lpm then a.lpm > b.lpm
  else a.seq < b.seq

let pick best ie = if best == none || ibetter ie best then ie else best
let fold_best best l = List.fold_left pick best l

let rec imatch_from ie raw i =
  i >= Array.length ie.ipats
  || (ipat_matches ie.ipats.(i) raw.(i) && imatch_from ie raw (i + 1))

let imatch ie raw = imatch_from ie raw 0

let rec fold_imatch1 best v = function
  | [] -> best
  | ie :: rest ->
      fold_imatch1 (if ipat_matches ie.ipats.(0) v then pick best ie else best) v rest

let rec fold_imatch best raw = function
  | [] -> best
  | ie :: rest -> fold_imatch (if imatch ie raw then pick best ie else best) raw rest

let rec probe_lpm groups best v0 =
  match groups with
  | [] -> best
  | g :: rest ->
      let best =
        match HI.find_opt g.buckets (v0 land g.gmask) with
        | Some l -> fold_best best l
        | None -> best
      in
      probe_lpm rest best v0

(* The index walk over int key values of the declared widths. *)
let lookup1 t v0 =
  let idx = t.store.index in
  let best =
    match HI.find_opt idx.exact1 v0 with
    | Some l -> fold_best none l
    | None -> none
  in
  let best = probe_lpm idx.lpm best v0 in
  if idx.linear == [] then best else fold_imatch1 best v0 idx.linear

let lookupn t raw =
  let idx = t.store.index in
  let best =
    match HA.find_opt idx.exact raw with
    | Some l -> fold_best none l
    | None -> none
  in
  let best = if idx.lpm == [] then best else probe_lpm idx.lpm best raw.(0) in
  if idx.linear == [] then best else fold_imatch best raw idx.linear

(* A packed table's key read into one int, as [pack] packs an entry's,
   probes [exact1]; its other entries are in [linear] (it has no LPM
   groups: those are single-key), which is scanned key by key. *)
let lookup_packed t b cells =
  let kc = b.kcells in
  let k = ref 0 in
  for i = 0 to Array.length kc - 1 do
    k := (!k lsl t.kwidths.(i)) lor cells.(kc.(i))
  done;
  let idx = t.store.index in
  let best =
    match HI.find_opt idx.exact1 !k with
    | Some l -> fold_best none l
    | None -> none
  in
  if idx.linear == [] then best
  else begin
    let raw = b.kscratch in
    for i = 0 to Array.length kc - 1 do
      raw.(i) <- cells.(kc.(i))
    done;
    fold_imatch best raw idx.linear
  end

(* An empty table probes nothing: every packet misses. *)
let lookup_raw t b phv =
  let kc = b.kcells in
  let cells = phv.Phv.cells in
  if t.store.body.count = 0 then none
  else if Array.length kc = 1 then lookup1 t cells.(kc.(0))
  else if t.packed then lookup_packed t b cells
  else begin
    let raw = b.kscratch in
    for i = 0 to Array.length kc - 1 do
      raw.(i) <- cells.(kc.(i))
    done;
    lookupn t raw
  end

let lookup_ientry t b phv =
  (match t.store.on_lookup with Some f -> f () | None -> ());
  let ie = lookup_raw t b phv in
  if ie != none then stat_hit t ie else stat_miss t;
  ie

let lookup t phv =
  let ie = lookup_ientry t (binding t phv.Phv.lay) phv in
  if ie == none then `Miss else `Hit ie.e

let apply_index ~regs t phv =
  let b = binding t phv.Phv.lay in
  let ie = lookup_ientry t b phv in
  if ie != none then begin
    b.runs.(ie.ai) regs ie.bound phv;
    (ie.ai lsl 1) lor 1
  end
  else begin
    b.runs.(t.default_ai) regs t.default_bound phv;
    t.default_ai lsl 1
  end

let action_name t ai = t.acts.(ai).Action.name

let apply ?(regs = Action.no_regs) t phv =
  let code = apply_index ~regs t phv in
  if code land 1 = 1 then (action_name t (code lsr 1), true) else (fst t.default, false)

(* The pre-index apply: linear candidate scan, action resolved by name
   and argument list re-validated on every invocation. The reference
   interpreter runs on this so the oracle shares no code with the staged
   index or the pre-bound action data. *)
let apply_reference ?(regs = Action.no_regs) t phv =
  match lookup_reference t phv with
  | `Hit e ->
      let act =
        match find_action t e.action with
        | Some a -> a
        | None ->
            invalid_arg
              (Printf.sprintf "Table.apply %s: unknown action %s" t.name
                 e.action)
      in
      Action.run ~regs act ~args:e.args phv;
      (e.action, true)
  | `Miss ->
      let dname, dargs = t.default in
      Action.run ~regs t.acts.(t.default_ai) ~args:dargs phv;
      (dname, false)

(* --- Telemetry --- *)

(* Enabling (re)starts every tally from zero; disabling discards
   them, per-entry hits included. *)
let set_stats_enabled t on =
  let s = t.store in
  if on then begin
    s.stats <- Some { hits = 0; misses = 0 };
    s.ehits <- Array.make s.body.slots 0
  end
  else begin
    s.stats <- None;
    s.ehits <- [||]
  end

let stats t = t.store.stats

let hits_of t ie =
  let h = t.store.ehits in
  if ie.hit_slot < Array.length h then h.(ie.hit_slot) else 0

let entry_hits t = List.map (fun ie -> (ie.e, hits_of t ie)) (ientries_by_seq t)

(* Fold a replica's tallies into this table's (both must have stats
   enabled, else no-op). A replica made with {!copy} keeps every
   entry's slot, so per-entry hits pair slot by slot, and only where
   both sides' entries there have the same seq: seqs are never reused
   within a table, so an entry present only on one side (deleted here,
   or installed on the replica after the copy, perhaps in a slot a
   delete freed) is skipped rather than misattributed. *)
let merge_stats_from t ~src =
  match (t.store.stats, src.store.stats) with
  | Some d, Some s ->
      d.hits <- d.hits + s.hits;
      d.misses <- d.misses + s.misses;
      let dh = t.store.ehits and dst = t.store.body.by_slot in
      Array.iteri
        (fun slot sie ->
          if sie != none && slot < Array.length dst && dst.(slot).seq = sie.seq then
            dh.(slot) <- dh.(slot) + hits_of src sie)
        src.store.body.by_slot
  | None, _ | _, None -> ()

(* --- Diagnostics --- *)

let max_bucket_length t =
  let idx = t.store.index in
  let longest (s : Hashtbl.statistics) = s.Hashtbl.max_bucket_length in
  List.fold_left
    (fun acc g -> max acc (longest (HI.stats g.buckets)))
    (max (longest (HI.stats idx.exact1)) (longest (HA.stats idx.exact)))
    idx.lpm

let compiled_action t entry =
  match t.store.bnd with
  | None -> None
  | Some b -> Option.map (fun ie -> b.runs.(ie.ai)) (locate t (slot_of t entry.patterns) entry)

let key_bits t = List.fold_left (fun acc k -> acc + k.width) 0 t.keys

let pp ppf t =
  let kind_str = function
    | Exact -> "exact"
    | Ternary -> "ternary"
    | Lpm -> "lpm"
    | Range -> "range"
  in
  Format.fprintf ppf "@[<v 2>table %s {@,keys = {" t.name;
  List.iter
    (fun k -> Format.fprintf ppf " %a:%s;" Fieldref.pp k.field (kind_str k.kind))
    t.keys;
  Format.fprintf ppf " }@,actions = {%s}@,default = %s@,size = %d/%d@]@,}"
    (String.concat "; " (List.map (fun (a : Action.t) -> a.Action.name) t.actions))
    (fst t.default) (size t) t.max_size
