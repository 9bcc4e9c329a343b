(* Shared mutable side-state: the epoch counts control-plane resets (a
   flow cache invalidates memoized verdicts against it) and the
   recorders, when armed, observe every data-plane cell access. Lives
   in its own mutable record; {!copy} gets a fresh one. *)
type state = {
  mutable epoch : int;
  mutable on_read : (int -> int64 -> unit) option;
  mutable on_write : (int -> int64 -> unit) option;
}

(* Cells are 8-byte slots of a [Bytes.t]: the data-plane int accessors
   read and write them through unboxed 64-bit loads and stores, so a
   register access on the fast path allocates nothing. *)
type t = { name : string; width : int; cells : Bytes.t; state : state }

let fresh_state () = { epoch = 0; on_read = None; on_write = None }

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let make ~name ~size ~width =
  if size < 1 then invalid_arg "Register.make: size must be positive";
  if width < 1 || width > 64 then
    invalid_arg "Register.make: width not in 1..64";
  {
    name;
    width;
    cells = Bytes.make (8 * next_pow2 size 1) '\000';
    state = fresh_state ();
  }

let name t = t.name
let size t = Bytes.length t.cells / 8
let width t = t.width

let index_mask t = size t - 1
let cell t i = Bytes.get_int64_ne t.cells (8 * i)
let mask t = if t.width >= 64 then -1L else Int64.(sub (shift_left 1L t.width) 1L)

(* Out-of-range indices wrap through [index_mask], matching the
   hardware (cell counts are powers of two, addresses are masked).
   Read and write must agree on this: an asymmetric pair (saturating
   read, dropped write) makes a wrapped write invisible to its own
   read-back. *)
let read t i =
  let i = i land index_mask t in
  let v = cell t i in
  (match t.state.on_read with Some f -> f i v | None -> ());
  Bitval.make ~width:t.width v

let store t i v =
  Bytes.set_int64_ne t.cells (8 * i) v;
  match t.state.on_write with Some f -> f i v | None -> ()

let write t i v =
  store t (i land index_mask t) (Bitval.to_int64 (Bitval.resize v t.width))

let read_int t i ~width =
  let i = i land index_mask t in
  (match t.state.on_read with Some f -> f i (cell t i) | None -> ());
  Int64.to_int (cell t i) land ((1 lsl width) - 1)

let write_int t i v =
  store t (i land index_mask t) (Int64.logand (Int64.of_int v) (mask t))

let read_raw t i = cell t (i land index_mask t)

let clear t =
  Bytes.fill t.cells 0 (Bytes.length t.cells) '\000';
  t.state.epoch <- t.state.epoch + 1

let epoch t = t.state.epoch
let set_on_read t f = t.state.on_read <- Some f
let set_on_write t f = t.state.on_write <- Some f

let fold f t init =
  let acc = ref init in
  for i = 0 to size t - 1 do
    let c = cell t i in
    if c <> 0L then acc := f i (Bitval.make ~width:t.width c) !acc
  done;
  !acc

(* A copy is a fresh register: private cells, epoch restarted, no
   recorders — a {!Asic.Chip.replicate} replica must not fire the
   original's hooks or share its invalidation history. *)
let copy t = { t with cells = Bytes.copy t.cells; state = fresh_state () }

(* Matches Resources.sram_block_bits; kept literal to avoid a module
   cycle (Resources models tables, which use actions, which use
   registers). *)
let block_bits = 128 * 1024

let sram_blocks t = max 1 (((size t * t.width) + block_bits - 1) / block_bits)

let pp ppf t =
  Format.fprintf ppf "register<bit<%d>>[%d] %s" t.width (size t) t.name
