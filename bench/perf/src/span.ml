(* Spans recorded by the benchmark around its calls into each layer:
   name, start, end, parent span and packet id, kept in memory (off the
   OCaml heap, so tracing does not inflate the heap it measures) and
   written out once at the end as Chrome trace-event JSON. *)

module A = Bigarray.Array1

let fields = 6 (* name, start, stop, parent, pkt, tid *)

type t = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable cols : (int, Bigarray.int_elt, Bigarray.c_layout) A.t;
  mutable len : int;
}

let alloc spans = A.create Bigarray.int Bigarray.c_layout (fields * max 64 spans)
let create () = { ids = Hashtbl.create 16; names = [||]; cols = alloc 4096; len = 0 }
let length t = t.len

let intern t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None ->
      let id = Array.length t.names in
      Hashtbl.add t.ids name id;
      t.names <- Array.append t.names [| name |];
      id

let add t ~name ~start ~stop ~parent ~pkt ~tid =
  if (t.len + 1) * fields > A.dim t.cols then begin
    let bigger = alloc (2 * t.len) in
    A.blit t.cols (A.sub bigger 0 (t.len * fields));
    t.cols <- bigger
  end;
  let o = t.len * fields in
  A.set t.cols o name;
  A.set t.cols (o + 1) start;
  A.set t.cols (o + 2) stop;
  A.set t.cols (o + 3) parent;
  A.set t.cols (o + 4) pkt;
  A.set t.cols (o + 5) tid;
  t.len <- t.len + 1;
  t.len - 1

let name t i = t.names.(A.get t.cols (i * fields))
let start t i = A.get t.cols ((i * fields) + 1)
let stop t i = A.get t.cols ((i * fields) + 2)
let parent t i = A.get t.cols ((i * fields) + 3)
let pkt t i = A.get t.cols ((i * fields) + 4)
let tid t i = A.get t.cols ((i * fields) + 5)
let duration t i = stop t i - start t i

(* Length of the union of [ivs] (start, stop) pairs, each clipped to
   [lo, hi]. Sorts [ivs] in place. *)
let union_length ivs ~lo ~hi =
  Array.sort compare ivs;
  let total = ref 0 and cur_s = ref 0 and cur_e = ref min_int in
  Array.iter
    (fun (s, e) ->
      let s = max s lo and e = min e hi in
      if e > s then
        if s > !cur_e then begin
          if !cur_e > !cur_s then total := !total + (!cur_e - !cur_s);
          cur_s := s;
          cur_e := e
        end
        else cur_e := max !cur_e e)
    ivs;
  if !cur_e > !cur_s then total := !total + (!cur_e - !cur_s);
  !total

(* Each span's children, as arrays of span ids (counting sort on the
   parent column). *)
let children t =
  let counts = Array.make (t.len + 1) 0 in
  for i = 0 to t.len - 1 do
    let p = parent t i in
    if p >= 0 && p < t.len then counts.(p + 1) <- counts.(p + 1) + 1
  done;
  for i = 1 to t.len do
    counts.(i) <- counts.(i) + counts.(i - 1)
  done;
  let flat = Array.make counts.(t.len) 0 in
  let fill = Array.sub counts 0 t.len in
  for i = 0 to t.len - 1 do
    let p = parent t i in
    if p >= 0 && p < t.len then begin
      flat.(fill.(p)) <- i;
      fill.(p) <- fill.(p) + 1
    end
  done;
  fun p -> Array.sub flat counts.(p) (counts.(p + 1) - counts.(p))

(* Per span: (union of its children's intervals within it, self time).
   Self time is the span's duration minus that union, so the two add up
   to the duration by construction. *)
let self_times t =
  let kids = children t in
  Array.init t.len (fun i ->
      let lo = start t i and hi = stop t i in
      let ivs = Array.map (fun c -> (start t c, stop t c)) (kids i) in
      let covered = union_length ivs ~lo ~hi in
      (covered, hi - lo - covered))

(* Chrome trace-event JSON (the format Perfetto and chrome://tracing
   open): one complete ("X") event per span, times in microseconds from
   the earliest written span. Only the first [limit] spans are written;
   the header records how many exist. *)
let write_chrome ?(limit = max_int) t oc =
  let n = min limit t.len in
  let t0 = ref max_int in
  for i = 0 to n - 1 do
    t0 := min !t0 (start t i)
  done;
  let us ns = Jsonv.num_to_string (float_of_int ns /. 1000.0) in
  Printf.fprintf oc
    "{\"displayTimeUnit\": \"ns\", \"otherData\": {\"spans_total\": %d, \
     \"spans_written\": %d},\n\"traceEvents\": [\n"
    t.len n;
  for i = 0 to n - 1 do
    Printf.fprintf oc
      "%s{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %s, \
       \"dur\": %s, \"args\": {\"id\": %d, \"parent\": %d, \"pkt\": %d}}"
      (if i = 0 then "" else ",\n")
      (Telemetry.Json.str (name t i))
      (tid t i)
      (us (start t i - !t0))
      (us (duration t i))
      i (parent t i) (pkt t i)
  done;
  output_string oc "\n]}\n"
