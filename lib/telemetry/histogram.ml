let n_buckets = 64

type t = { counts : int array; mutable count : int; mutable sum : int }

let create () = { counts = Array.make n_buckets 0; count = 0; sum = 0 }

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 in
    let v = ref v in
    while !v <> 0 do
      incr b;
      v := !v lsr 1
    done;
    if !b > n_buckets - 1 then n_buckets - 1 else !b
  end

let bounds b =
  if b <= 0 then (min_int, 0)
  else if b >= n_buckets - 1 then (1 lsl (n_buckets - 2), max_int)
  else ((1 lsl (b - 1)), (1 lsl b) - 1)

let observe t v =
  let b = bucket_of v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v

let count t = t.count
let sum t = t.sum

let nonzero t =
  let out = ref [] in
  for b = n_buckets - 1 downto 0 do
    if t.counts.(b) > 0 then out := (b, t.counts.(b)) :: !out
  done;
  !out

let quantile t q =
  if t.count = 0 then 0
  else begin
    let target =
      let x = int_of_float (ceil (q *. float_of_int t.count)) in
      if x < 1 then 1 else if x > t.count then t.count else x
    in
    let rec go b acc =
      if b >= n_buckets then snd (bounds (n_buckets - 1))
      else
        let acc = acc + t.counts.(b) in
        if acc >= target then snd (bounds b) else go (b + 1) acc
    in
    go 0 0
  end

let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

let reset t =
  Array.fill t.counts 0 n_buckets 0;
  t.count <- 0;
  t.sum <- 0

let merge_into ~dst src =
  for b = 0 to n_buckets - 1 do
    dst.counts.(b) <- dst.counts.(b) + src.counts.(b)
  done;
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum + src.sum
