let check_range b ~bit_off ~width =
  if width < 1 || width > 64 then
    invalid_arg (Printf.sprintf "Bytes_util: width %d not in 1..64" width);
  if bit_off < 0 || bit_off + width > 8 * Bytes.length b then
    invalid_arg
      (Printf.sprintf "Bytes_util: bit range [%d,%d) exceeds %d bytes" bit_off
         (bit_off + width) (Bytes.length b))

(* Both accessors work a byte at a time: up to 8 bits of the field live
   in any one byte, so a width-w access costs at most ceil(w/8)+1 cheap
   integer steps instead of the w per-bit get/set rounds the original
   loops paid (which dominated every header extract/emit). *)
let get_bits_slow b ~bit_off ~width =
  let acc = ref 0L in
  let pos = ref bit_off in
  let remaining = ref width in
  while !remaining > 0 do
    let bit_in_byte = !pos land 7 in
    let take = min !remaining (8 - bit_in_byte) in
    let byte = Char.code (Bytes.unsafe_get b (!pos lsr 3)) in
    let chunk = (byte lsr (8 - bit_in_byte - take)) land ((1 lsl take) - 1) in
    acc := Int64.(logor (shift_left !acc take) (of_int chunk));
    pos := !pos + take;
    remaining := !remaining - take
  done;
  !acc

(* Byte-aligned reads of whole-byte fields up to 56 bits, as one or two
   wide loads; callers check range, alignment and width first. MAC
   addresses (48 bits) and 40-bit fields would otherwise walk the
   generic loop a byte at a time. *)
let get_aligned b off width =
  match width with
  | 8 -> Char.code (Bytes.unsafe_get b off)
  | 16 -> Bytes.get_uint16_be b off
  | 24 -> (Bytes.get_uint16_be b off lsl 8) lor Char.code (Bytes.unsafe_get b (off + 2))
  | 32 -> Int32.to_int (Bytes.get_int32_be b off) land 0xFFFF_FFFF
  | 40 ->
      (Char.code (Bytes.unsafe_get b off) lsl 32)
      lor (Int32.to_int (Bytes.get_int32_be b (off + 1)) land 0xFFFF_FFFF)
  | 48 ->
      (Bytes.get_uint16_be b off lsl 32)
      lor (Int32.to_int (Bytes.get_int32_be b (off + 2)) land 0xFFFF_FFFF)
  | _ ->
      (* 56 *)
      (((Bytes.get_uint16_be b off lsl 8) lor Char.code (Bytes.unsafe_get b (off + 2))) lsl 32)
      lor (Int32.to_int (Bytes.get_int32_be b (off + 3)) land 0xFFFF_FFFF)

let set_aligned b off width v =
  match width with
  | 8 -> Bytes.unsafe_set b off (Char.unsafe_chr (v land 0xff))
  | 16 -> Bytes.set_uint16_be b off (v land 0xffff)
  | 24 ->
      Bytes.set_uint16_be b off ((v lsr 8) land 0xffff);
      Bytes.unsafe_set b (off + 2) (Char.unsafe_chr (v land 0xff))
  | 32 -> Bytes.set_int32_be b off (Int32.of_int v)
  | 40 ->
      Bytes.unsafe_set b off (Char.unsafe_chr ((v lsr 32) land 0xff));
      Bytes.set_int32_be b (off + 1) (Int32.of_int v)
  | 48 ->
      Bytes.set_uint16_be b off ((v lsr 32) land 0xffff);
      Bytes.set_int32_be b (off + 2) (Int32.of_int v)
  | _ ->
      (* 56 *)
      Bytes.set_uint16_be b off ((v lsr 40) land 0xffff);
      Bytes.unsafe_set b (off + 2) (Char.unsafe_chr ((v lsr 32) land 0xff));
      Bytes.set_int32_be b (off + 3) (Int32.of_int v)

let get_bits b ~bit_off ~width =
  check_range b ~bit_off ~width;
  if bit_off land 7 = 0 && width land 7 = 0 && width <= 56 then
    Int64.of_int (get_aligned b (bit_off lsr 3) width)
  else get_bits_slow b ~bit_off ~width

let set_bits_slow b ~bit_off ~width v =
  let pos = ref bit_off in
  let remaining = ref width in
  while !remaining > 0 do
    let bit_in_byte = !pos land 7 in
    let take = min !remaining (8 - bit_in_byte) in
    let keep = lnot (((1 lsl take) - 1) lsl (8 - bit_in_byte - take)) land 0xff in
    let chunk =
      Int64.(to_int (logand (shift_right_logical v (!remaining - take))
                       (of_int ((1 lsl take) - 1))))
    in
    let idx = !pos lsr 3 in
    let old = Char.code (Bytes.unsafe_get b idx) in
    Bytes.unsafe_set b idx
      (Char.unsafe_chr
         ((old land keep) lor (chunk lsl (8 - bit_in_byte - take))));
    pos := !pos + take;
    remaining := !remaining - take
  done

let set_bits b ~bit_off ~width v =
  check_range b ~bit_off ~width;
  if bit_off land 7 = 0 && width land 7 = 0 && width <= 56 then
    set_aligned b (bit_off lsr 3) width (Int64.to_int v)
  else set_bits_slow b ~bit_off ~width v

(* --- Immediate-int accessors (widths up to 62 bits): the PHV keeps
   field values as OCaml ints, so extract and emit never box. Same bit
   order, same range errors as the [int64] pair. --- *)

let max_int_width = 62

let check_range_int b ~bit_off ~width =
  if width < 1 || width > max_int_width then
    invalid_arg
      (Printf.sprintf "Bytes_util: width %d not in 1..%d" width max_int_width);
  if bit_off < 0 || bit_off + width > 8 * Bytes.length b then
    invalid_arg
      (Printf.sprintf "Bytes_util: bit range [%d,%d) exceeds %d bytes" bit_off
         (bit_off + width) (Bytes.length b))

let get_bits_int_slow b ~bit_off ~width =
  let acc = ref 0 in
  let pos = ref bit_off in
  let remaining = ref width in
  while !remaining > 0 do
    let bit_in_byte = !pos land 7 in
    let take = min !remaining (8 - bit_in_byte) in
    let byte = Char.code (Bytes.unsafe_get b (!pos lsr 3)) in
    acc := (!acc lsl take) lor ((byte lsr (8 - bit_in_byte - take)) land ((1 lsl take) - 1));
    pos := !pos + take;
    remaining := !remaining - take
  done;
  !acc

let get_bits_int b ~bit_off ~width =
  check_range_int b ~bit_off ~width;
  if bit_off land 7 = 0 && width land 7 = 0 then get_aligned b (bit_off lsr 3) width
  else get_bits_int_slow b ~bit_off ~width

let set_bits_int_slow b ~bit_off ~width v =
  let pos = ref bit_off in
  let remaining = ref width in
  while !remaining > 0 do
    let bit_in_byte = !pos land 7 in
    let take = min !remaining (8 - bit_in_byte) in
    let shift = 8 - bit_in_byte - take in
    let keep = lnot (((1 lsl take) - 1) lsl shift) land 0xff in
    let chunk = (v lsr (!remaining - take)) land ((1 lsl take) - 1) in
    let idx = !pos lsr 3 in
    let old = Char.code (Bytes.unsafe_get b idx) in
    Bytes.unsafe_set b idx (Char.unsafe_chr ((old land keep) lor (chunk lsl shift)));
    pos := !pos + take;
    remaining := !remaining - take
  done

let set_bits_int b ~bit_off ~width v =
  check_range_int b ~bit_off ~width;
  if bit_off land 7 = 0 && width land 7 = 0 then set_aligned b (bit_off lsr 3) width v
  else set_bits_int_slow b ~bit_off ~width v

let get_uint8 b off = Char.code (Bytes.get b off)
let set_uint8 b off v = Bytes.set b off (Char.chr (v land 0xff))

let get_uint16 b off = (get_uint8 b off lsl 8) lor get_uint8 b (off + 1)

let set_uint16 b off v =
  set_uint8 b off ((v lsr 8) land 0xff);
  set_uint8 b (off + 1) (v land 0xff)

let get_uint32 b off = get_bits b ~bit_off:(8 * off) ~width:32
let set_uint32 b off v = set_bits b ~bit_off:(8 * off) ~width:32 v

let internet_checksum b ~off ~len =
  let sum = ref 0 in
  let i = ref 0 in
  while !i + 1 < len do
    sum := !sum + get_uint16 b (off + !i);
    i := !i + 2
  done;
  if len land 1 = 1 then sum := !sum + (get_uint8 b (off + len - 1) lsl 8);
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xffff) + (!sum lsr 16)
  done;
  lnot !sum land 0xffff

(* CRC-32 by slicing-by-8: eight 256-entry tables end to end, table k
   at [k * 256]. Table 0 is the bytewise table; table k carries a byte's
   contribution through k more zero bytes, so one step folds eight
   input bytes with eight independent lookups. Built at module
   initialisation, so no call pays a [Lazy.force] and the 16 KiB exist
   before anything measures the heap. *)
let crc32_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for n = 256 to (8 * 256) - 1 do
    let prev = t.(n - 256) in
    t.(n) <- (prev lsr 8) lxor t.(prev land 0xff)
  done;
  t

let crc32_byte c x =
  Array.unsafe_get crc32_tables ((c lxor x) land 0xff) lxor (c lsr 8)

let crc32_fold acc b ~off ~len =
  (* The one range check: the reads below cannot leave the buffer. *)
  if len > 0 && (off < 0 || off > Bytes.length b - len) then
    invalid_arg "index out of bounds";
  let t = crc32_tables in
  let c = ref (acc land 0xFFFFFFFF) in
  let i = ref off in
  let stop = off + len in
  while !i <= stop - 8 do
    (* Eight bytes, little-endian: [lo] is bytes 0-3 folded into the
       register, [hi] bytes 4-7. The word stays unboxed. *)
    let w = Bytes.get_int64_le b !i in
    let lo = (Int64.to_int w land 0xFFFFFFFF) lxor !c in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    c :=
      Array.unsafe_get t (0x700 lor (lo land 0xff))
      lxor Array.unsafe_get t (0x600 lor ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x500 lor ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t (0x400 lor (lo lsr 24))
      lxor Array.unsafe_get t (0x300 lor (hi land 0xff))
      lxor Array.unsafe_get t (0x200 lor ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x100 lor ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c := crc32_byte !c (Char.code (Bytes.unsafe_get b !i));
    incr i
  done;
  (!c lxor 0xFFFFFFFF) land 0xFFFFFFFF

let crc32_fold_be acc ~bytes v =
  let c = ref (acc land 0xFFFFFFFF) in
  for k = bytes - 1 downto 0 do
    c := crc32_byte !c (v lsr (8 * k))
  done;
  (!c lxor 0xFFFFFFFF) land 0xFFFFFFFF

let crc32_int ?(init = 0xFFFFFFFF) b ~off ~len = crc32_fold init b ~off ~len

let crc32 ?(init = 0xFFFFFFFFL) b ~off ~len =
  Int64.of_int (crc32_int ~init:(Int64.to_int init) b ~off ~len)

let crc16_int b ~off ~len =
  let c = ref 0 in
  for i = off to off + len - 1 do
    c := !c lxor get_uint8 b i;
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xA001 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c land 0xFFFF

let crc16 b ~off ~len = Int64.of_int (crc16_int b ~off ~len)

let pp_hex ppf b =
  let n = Bytes.length b in
  for i = 0 to n - 1 do
    if i > 0 && i mod 16 = 0 then Format.fprintf ppf "@\n";
    Format.fprintf ppf "%02x " (get_uint8 b i)
  done
