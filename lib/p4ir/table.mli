(** Match-action tables: the unit a MAU stage executes. *)

type match_kind = Exact | Ternary | Lpm | Range

type key = { field : Fieldref.t; kind : match_kind; width : int }

type pattern =
  | M_exact of Bitval.t
  | M_ternary of { value : Bitval.t; mask : Bitval.t }
  | M_lpm of { value : Bitval.t; prefix_len : int }
  | M_range of { lo : Bitval.t; hi : Bitval.t }
  | M_any

type entry = {
  priority : int;  (** larger wins; LPM entries also rank by prefix length *)
  patterns : pattern list;
  action : string;
  args : Bitval.t list;
}

type t

val make :
  name:string ->
  keys:key list ->
  actions:Action.t list ->
  default:string * Bitval.t list ->
  ?max_size:int ->
  unit ->
  t
(** Raises [Invalid_argument] when the default action is not among
    [actions]. [max_size] defaults to 1024. *)

val name : t -> string
val keys : t -> key list
val actions : t -> Action.t list
val max_size : t -> int
val entries : t -> entry list
val size : t -> int
val rename : t -> string -> t
(** The same table under a new name: both handles share one state —
    entries, index, binding, stats, epoch and recorder — so entries
    added through either are seen by both. *)

val find_action : t -> string -> Action.t option

(** {2 Entry installation and mutation}

    The convention throughout the tree: library code, NF constructors,
    control-plane handlers and CLI/bench front-ends mutate tables with
    the result-returning API below (or, one level up, through the typed
    {!Ctrl} op language and [Runtime.apply_ops]) and propagate the
    error — a mutation that fails on capacity, a malformed pattern or a
    missing entry is an operational condition, not a programming bug.
    (The old [add_entry_exn] escape hatch is gone: tests wrap
    {!add_entry} themselves when a failed install should just fail the
    test.)

    {!del_entry} and {!mod_entry} name the entry to touch by its match
    key — the (priority, patterns) pair, compared by match semantics
    (numeric value equality, ternary values under their masks, LPM
    values under their prefix masks), the identity a P4Runtime
    DELETE/MODIFY would use. Both maintain the staged index
    incrementally: one hash-bucket probe locates the entry (a scan only
    for the ternary/range partition), deletion unlinks it from exactly
    that bucket — no bulk rebuild. *)

val add_entry : t -> entry -> (unit, string) result
(** Validates pattern arity against keys, pattern kind against match kind,
    action existence and argument arity, and capacity. Duplicate match
    keys are permitted (the earlier entry wins ties by sequence).

    The table compiles each declared action once per binding ({!bind});
    an installed entry stores only its lowered patterns, its action's
    position and its action data as ints ({!Action.bind_ints}), and
    runs that shared compiled action, so an install compiles
    nothing. *)

val add_entries : t -> entry list -> (unit, string) result
(** {!add_entry} in order, stopping at the first error. *)

val del_entry : t -> entry -> (unit, string) result
(** Remove the installed entry whose match key equals [entry]'s
    (action and args are ignored). Errors when no such entry exists or
    the patterns are malformed for this table. Bumps the epoch. *)

val mod_entry : t -> entry -> (unit, string) result
(** Rebind the action and arguments of the installed entry whose match
    key equals [entry]'s, in place: the entry keeps its sequence number
    (lookup tie-break), its stored patterns and its per-entry hit
    tally. The entry is repointed at the table's compiled action for
    the new action; nothing is compiled. Errors when no such entry
    exists, the action is unknown, or the argument arity is wrong.
    Bumps the epoch. *)

val clear : t -> unit
(** Remove every entry: the handle takes an empty body, and gives up
    its claim on the one it held without copying it — a clear never
    copies, even when the entries are shared with a {!copy}, which
    keeps them. Sequence numbers are not reused afterwards — [next_seq]
    survives a clear — so stats merged by seq ({!merge_stats_from})
    never pair entries across generations. *)

(** {2 Invalidation epoch and lookup recorder}

    Support for memoization layers (the runtime flow cache): the epoch
    counts successful mutations and the recorder — when armed —
    observes every lookup, hit or miss, on both the indexed and the
    reference path. Both live in the handle's state ({!rename}d handles
    report together); a {!copy} starts fresh. When no recorder is armed
    the lookup paths pay a single option match. *)

val epoch : t -> int
(** Incremented by every successful mutation: {!add_entry},
    {!del_entry}, {!mod_entry} and {!clear}. *)

val set_on_lookup : t -> (unit -> unit) -> unit
(** Arm the lookup recorder, in place of any armed before. The lookup
    itself is the dependency, so it fires on hits and misses alike. *)

val copy : t -> t
(** An independent copy in O(1): same definition, the source's current
    entries with their sequence numbers — and the seq allocator — so
    the copy resolves lookup tie-breaks like the original and stays
    pairable by seq even after either side churns. Mutating either side
    afterwards leaves the other unchanged.

    Copy on write: the copy shares the source's body — entries, lowered
    patterns and index — and counts itself among its holders
    (atomically, so several domains may copy one table at once; the
    copy only reads the source otherwise). The first {!add_entry},
    {!mod_entry} or {!del_entry} through a handle that is not its
    body's only holder takes a private copy of the body first — fresh
    mutable entry records over the shared immutable entry data, the
    index copied bucket for bucket in order — and an only holder writes
    in place; {!clear} just drops its claim. So a copy costs what it
    writes, and a body only ever gets read while it is shared.

    The copy starts unbound and compiles its own actions when bound —
    compiled closures own scratch buffers, so a copy used on another
    domain shares none with the source. Stats start disabled, the epoch
    at 0 and no lookup recorder is armed. Used by
    {!Asic.Chip.replicate}. *)

(** {2 Layout binding}

    A table's fast path is compiled against the PHV layout of the
    pipelet that applies it: key reads become cell reads and each
    declared action is compiled once ({!Action.compile}) for that
    layout, so lookups and applies run on immediate ints. The handle
    holds one binding ({!rename}d handles share it). A lookup or apply
    on a PHV of another layout compiles a binding for that layout in
    place of the one held: an unbound table binds to the first PHV's
    layout, and only a handle shared by pipelets of different layouts
    rebinds after load. *)

val bind : t -> Phv.layout -> unit
(** Compile the key reads and actions against a layout, replacing the
    handle's binding unless it is for this layout already.
    [Asic.Pipelet.load] binds every table its control applies. Raises
    [Not_found] when the layout lacks a key field, as a name-resolved
    read would, and [Invalid_argument] when the field's width is not
    the key's; {!Program.validate} refuses both. *)

val lookup : t -> Phv.t -> [ `Hit of entry | `Miss ]
(** Highest priority wins; among equal priorities the longest LPM prefix,
    then earliest insertion.

    Served by a staged index maintained incrementally on
    {!add_entry}/{!clear}: all-exact entries are hash-indexed on their
    key values — packed into one int when the table has no key, or
    several whose widths sum to at most 62 bits (an entry value wider
    than its key never matches and is scanned instead) — single-key LPM
    entries are bucketed by prefix length (probed longest-first), and
    only ternary/range/wildcard entries take a linear scan — with
    per-entry masks, prefix lengths, resolved actions and bound action
    data precomputed at insert time. An empty table probes nothing; its
    lookups still count as misses and fire the recorder. *)

val lookup_reference : t -> Phv.t -> [ `Hit of entry | `Miss ]
(** The pre-index linear scan over every entry, kept as the oracle the
    indexed {!lookup} is equivalence-tested against. *)

val apply : ?regs:Action.reg_env -> t -> Phv.t -> string * bool
(** Run the matching entry's action (or the default on miss) against the
    PHV. Returns [(action_run, hit)]. Lookup goes through the staged
    index; the action runs with its pre-bound data. *)

val apply_index : regs:Action.reg_env -> t -> Phv.t -> int
(** {!apply} without building a result: [2 * i + 1] on a hit that ran
    declared action [i] (position in {!actions}), [2 * i] on a miss
    that ran the default action [i]. On the bound path it allocates
    only the [Some] of an index-bucket hit — what compiled controls
    call. *)

val action_name : t -> int -> string
(** The name of declared action [i]. *)

val apply_reference : ?regs:Action.reg_env -> t -> Phv.t -> string * bool
(** {!apply} the pre-index way: linear {!lookup_reference} scan, action
    resolved by name and arguments re-validated per invocation. The
    reference control interpreter uses this, so fast and reference modes
    share no lookup code. *)

(** {2 Telemetry}

    Hit/miss tallies and per-entry hit counts, maintained by both
    {!lookup}/{!apply} and the reference pair when enabled. Off by
    default; when off the lookup paths pay a single immediate-field
    match. The counters live in the handle's state, not in the entries:
    {!rename}d handles tally together, and a {!copy} counts its own hits
    while it still shares its source's entries. A hit on an enabled
    table is one increment of the handle's per-entry array, at the slot
    the entry keeps for its lifetime. *)

type stats = { mutable hits : int; mutable misses : int }

val set_stats_enabled : t -> bool -> unit
(** Enabling (re)starts all tallies from zero; disabling discards
    them, per-entry hits included. *)

val stats : t -> stats option
val entry_hits : t -> (entry * int) list
(** Installed entries with their hit counts, insertion order. All zero
    when stats are disabled. *)

val merge_stats_from : t -> src:t -> unit
(** Add [src]'s hit/miss tallies and per-entry hits into this table's,
    pairing the entries each side holds in the same slot when they
    have the same sequence number — a {!copy} keeps every entry's
    slot, and a slot reused after a delete holds another seq — so
    entries present on one side only are skipped; over a body both
    still share, every entry pairs with itself.
    No-op unless both tables have stats enabled. Used to fold a
    {!copy}-based replica's telemetry back into the original after a
    parallel run. *)

(** {2 Diagnostics} *)

val max_bucket_length : t -> int
(** The longest hash-bucket chain in the exact and LPM index
    partitions: how many distinct keys one probe may walk past. Stays
    small only if the index hash spreads the table's keys. *)

val compiled_action : t -> entry -> Action.compiled option
(** The compiled action the installed entry with [entry]'s match key
    runs under the handle's current binding; [None] when the table is
    unbound or no such entry is installed. (Exposed for testing closure
    sharing.) *)

val key_bits : t -> int
(** Total match key width in bits. *)

val pp : Format.formatter -> t -> unit
