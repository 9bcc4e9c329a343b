(** Parse graphs — the directed acyclic graphs the paper's generic-parser
    merging operates on.

    Each vertex extracts one header type at a particular byte offset and
    then selects the next vertex on already-extracted field values; the
    paper identifies vertices by their [(header_type, offset)] tuple, and
    so do we. *)

type next = Accept | Reject | Goto of string

type case = { values : int64 list; next : next }

type select = { on : Fieldref.t list; cases : case list; default : next }

type state = {
  id : string;  (** globally unique vertex id *)
  header : string;  (** the header declaration this vertex extracts *)
  offset : int;  (** byte offset of the header in the packet *)
  select : select option;  (** [None] means accept after extraction *)
}

type t = {
  name : string;
  decls : Hdr.decl list;
  start : next;
  states : state list;
}

val vertex_key : state -> string * int
(** The [(header_type, offset)] identity used for merging. *)

val find_state : t -> string -> state option
val decl_for : t -> string -> Hdr.decl option

val validate : t -> (unit, string) result
(** Checks: every [Goto] target exists, every extracted header has a
    declaration, every select field is a field of a declared header,
    each successor's offset equals this vertex's offset + header size,
    and the graph is acyclic. *)

val parse : t -> Bytes.t -> Phv.t -> (int, string) result
(** Run the parser over a frame, filling the PHV. Returns the number of
    bytes consumed (the payload starts there). [Error] on [Reject], a
    truncated packet, or a missing transition. Adds the parser's header
    declarations to the PHV first. *)

type compiled
(** The parse graph with state ids resolved to direct references, and
    header sizes, select fields and case values precomputed against a
    PHV layout — the per-packet fast path. *)

val compile : layout:Phv.layout -> t -> compiled
(** [layout] is the layout of the PHVs the parser will fill, and must
    hold every header the graph extracts and every field it selects on
    (raises [Not_found] otherwise; a graph that passes {!validate}
    compiles against any layout holding its declarations). Extraction
    writes field values straight into cells as immediate ints and
    selects read cells. *)

val run_compiled : compiled -> Bytes.t -> Phv.t -> (int, string) result
(** Like {!parse}, but over the compiled graph, into a PHV of the
    compiled layout (copy a template PHV; unlike {!parse} no
    declarations are added), each header read through its wire codec
    ({!Hdr.read_wire}) where {!parse} runs the bit loop. Same results
    and errors as {!parse}.
    Raises [Invalid_argument] on a PHV of another layout. *)

val replay : compiled -> Phv.t -> order:int array -> bool
(** The compiled walk driven by the PHV's own cells instead of bytes.
    [order] holds the validity cells of the deparse order: the frame a
    deparser emits from [phv] is the headers valid among them, in that
    order, then the payload. Each state "extracts" its header only if
    it is the next of those emitted headers, and selects on the cells
    of the header it just extracted. [true] when the walk accepts
    after visiting exactly the emitted headers, in order: then
    {!run_compiled} over that frame extracts the same headers with the
    same values (cells hold values within their fields' widths;
    self-checksum fields aside, which the deparser recomputes) and
    consumes exactly the emitted header bytes, so the payload is
    unchanged. [false] otherwise: a [Reject], a header the
    walk would read that is not the next emitted one, emitted headers
    left over at accept, a select on a field of another header or on a
    self-checksum, or a PHV of another layout than the compiled one.
    Reads cells only; writes nothing. *)

val fix_checksum : Bytes.t -> off:int -> csum_byte:int -> size:int -> unit
(** The deparser's checksum engine: zero the 16-bit checksum at
    [off + csum_byte] and recompute the internet checksum over the
    [size] header bytes at [off], in place. Shared by {!deparse} and the
    precompiled fast deparse path so both emit identical frames. *)

val deparse : order:string list -> Phv.t -> payload:Bytes.t -> Bytes.t
(** Emit the valid headers among [order] (in that order) followed by the
    payload. Headers with an IPv4-style self-checksum
    ({!Hdr.self_checksum_byte}) get their checksum recomputed over the
    emitted bytes — actions rewrite fields without maintaining it. *)

val reachable : t -> string list
(** State ids reachable from [start], in BFS order. *)

val pp : Format.formatter -> t -> unit
