(* Cells are 8-byte slots of a [Bytes.t]: the data-plane int accessors
   read and write them through unboxed 64-bit loads and stores, so a
   register access on the fast path allocates nothing. The recorder,
   when armed, is told of every data-plane access; {!copy} starts with
   none. *)
type t = {
  name : string;
  width : int;
  cells : Bytes.t;
  mutable on_access : (unit -> unit) option;
}

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let make ~name ~size ~width =
  if size < 1 then invalid_arg "Register.make: size must be positive";
  if width < 1 || width > 64 then
    invalid_arg "Register.make: width not in 1..64";
  { name; width; cells = Bytes.make (8 * next_pow2 size 1) '\000'; on_access = None }

let name t = t.name
let size t = Bytes.length t.cells / 8

let index_mask t = size t - 1
let cell t i = Bytes.get_int64_ne t.cells (8 * i)
let mask t = if t.width >= 64 then -1L else Int64.(sub (shift_left 1L t.width) 1L)
let accessed t = match t.on_access with Some f -> f () | None -> ()

(* Out-of-range indices wrap through [index_mask], matching the
   hardware (cell counts are powers of two, addresses are masked).
   Read and write must agree on this: an asymmetric pair (saturating
   read, dropped write) makes a wrapped write invisible to its own
   read-back. *)
let read t i =
  accessed t;
  Bitval.make ~width:t.width (cell t (i land index_mask t))

let store t i v =
  accessed t;
  Bytes.set_int64_ne t.cells (8 * i) v

let write t i v =
  store t (i land index_mask t) (Bitval.to_int64 (Bitval.resize v t.width))

let read_int t i ~width =
  accessed t;
  Int64.to_int (cell t (i land index_mask t)) land ((1 lsl width) - 1)

let write_int t i v =
  store t (i land index_mask t) (Int64.logand (Int64.of_int v) (mask t))

let clear t = Bytes.fill t.cells 0 (Bytes.length t.cells) '\000'
let set_on_access t f = t.on_access <- Some f

let fold f t init =
  let acc = ref init in
  for i = 0 to size t - 1 do
    let c = cell t i in
    if c <> 0L then acc := f i (Bitval.make ~width:t.width c) !acc
  done;
  !acc

(* A copy is a fresh register: private cells and no recorder — a
   {!Asic.Chip.replicate} replica must not fire the original's hook. *)
let copy t = { t with cells = Bytes.copy t.cells; on_access = None }

(* Matches Resources.sram_block_bits; kept literal to avoid a module
   cycle (Resources models tables, which use actions, which use
   registers). *)
let block_bits = 128 * 1024

let sram_blocks t = max 1 (((size t * t.width) + block_bits - 1) / block_bits)

let pp ppf t =
  Format.fprintf ppf "register<bit<%d>>[%d] %s" t.width (size t) t.name
