type t = { w : int; v : int64 }

let mask w = if w >= 64 then -1L else Int64.(sub (shift_left 1L w) 1L)

let make ~width v =
  if width < 1 || width > 64 then
    invalid_arg (Printf.sprintf "Bitval.make: width %d not in 1..64" width);
  { w = width; v = Int64.logand v (mask width) }

let of_int ~width v = make ~width (Int64.of_int v)
let zero w = make ~width:w 0L
let one w = make ~width:w 1L
let max_value w = make ~width:w (-1L)
let width t = t.w
let to_int64 t = t.v

let to_int t =
  if t.v < 0L || t.v > Int64.of_int max_int then
    invalid_arg "Bitval.to_int: value exceeds int range"
  else Int64.to_int t.v

let to_bool t = t.v <> 0L
let of_bool b = make ~width:1 (if b then 1L else 0L)
let resize t w = make ~width:w t.v

let lift2 f a b =
  let b = resize b a.w in
  make ~width:a.w (f a.v b.v)

let add = lift2 Int64.add
let sub = lift2 Int64.sub
let mul = lift2 Int64.mul
let logand = lift2 Int64.logand
let logor = lift2 Int64.logor
let logxor = lift2 Int64.logxor
let lognot t = make ~width:t.w (Int64.lognot t.v)

let shift_left t n =
  if n >= 64 then zero t.w else make ~width:t.w (Int64.shift_left t.v n)

let shift_right t n =
  if n >= 64 then zero t.w else make ~width:t.w (Int64.shift_right_logical t.v n)

let equal a b = a.w = b.w && Int64.equal a.v b.v
let equal_value a b = Int64.equal a.v b.v

let compare_unsigned a b = Int64.unsigned_compare a.v b.v
let lt a b = compare_unsigned a b < 0
let le a b = compare_unsigned a b <= 0

let slice t ~hi ~lo =
  if lo < 0 || hi < lo || hi >= t.w then
    invalid_arg
      (Printf.sprintf "Bitval.slice: [%d:%d] out of bit<%d>" hi lo t.w);
  make ~width:(hi - lo + 1) (Int64.shift_right_logical t.v lo)

let concat a b =
  if a.w + b.w > 64 then invalid_arg "Bitval.concat: width exceeds 64";
  make ~width:(a.w + b.w) Int64.(logor (shift_left a.v b.w) b.v)

let mask_of_prefix ~width n =
  if n < 0 || n > width then invalid_arg "Bitval.mask_of_prefix";
  if n = 0 then zero width
  else make ~width Int64.(shift_left (mask n) (width - n))
