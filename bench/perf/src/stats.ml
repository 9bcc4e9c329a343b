(* Order statistics for the benchmark's reports. *)

(* A growable float sample buffer held outside the OCaml heap (a
   Bigarray), so the benchmark's own samples never count towards the
   system's live heap. *)
module Buf = struct
  type t = {
    mutable data : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
    mutable len : int;
  }

  let alloc n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (max 16 n)
  let create n = { data = alloc n; len = 0 }
  let length t = t.len

  let add t x =
    if t.len = Bigarray.Array1.dim t.data then begin
      let bigger = alloc (2 * t.len) in
      Bigarray.Array1.blit t.data (Bigarray.Array1.sub bigger 0 t.len);
      t.data <- bigger
    end;
    Bigarray.Array1.unsafe_set t.data t.len x;
    t.len <- t.len + 1

  let to_array t = Array.init t.len (fun i -> Bigarray.Array1.get t.data i)

  let sorted t =
    let a = to_array t in
    Array.sort Float.compare a;
    a

  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.len - 1 do
      s := !s +. Bigarray.Array1.get t.data i
    done;
    !s
end

(* Percentiles are handled in parts per million so that 99.9 of 1000
   samples is rank 999 exactly, not a float that rounds past it. *)
let ppm p = int_of_float (Float.round (p *. 10_000.0))

(* Nearest-rank percentile of a sorted array: the smallest sample with
   at least p% of the samples at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = ((ppm p * n) + 999_999) / 1_000_000 in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Samples strictly above the [p]th percentile's rank. *)
let beyond ~n p = n - (((ppm p * n) + 999_999) / 1_000_000)

let ladder = [ 50.0; 90.0; 99.0; 99.9; 99.99; 99.999 ]

(* The highest percentile of [ladder] that still has at least ten
   samples beyond it — the tail a sample of [n] can support. *)
let supported_percentile ~n =
  List.fold_left (fun acc p -> if beyond ~n p >= 10 then Some p else acc) None ladder

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles(data, n=n)] (the default, exclusive
   method): n-1 cut points with linear interpolation between order
   statistics. *)
let quantiles ~n l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quantiles: no data"
  else if ld = 1 then List.init (n - 1) (fun _ -> a.(0))
  else
    let m = ld + 1 in
    List.init (n - 1) (fun k ->
        let i = k + 1 in
        let j = max 1 (min (ld - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
        /. float_of_int n)
