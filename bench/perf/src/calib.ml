(* Host-speed calibration. On a shared VM the CPU's speed drifts by
   ±25% within seconds (contention the guest cannot see: no steal, CPU
   time equals wall time), which would swamp any regression bound. A
   fixed loop, run beside every timed section, slows down with the host
   the same way; scaling host times by [nominal / loop time] reports them
   as they would read on the host speed [nominal_ns] describes.

   The loop belongs to the benchmark, never to the system under test,
   allocates nothing, and is timed on its second pass over a small
   working set, so neither the system's code, its GC state nor what it
   left in the caches moves it. *)

let table =
  let h = Hashtbl.create 1024 in
  for i = 0 to 1023 do
    Hashtbl.replace h i i
  done;
  h

let bytes = Bytes.init 1024 (fun i -> Char.chr (i land 0xff))
let iterations = 5_000

(* The loop's duration on a quiet 2-vCPU Xeon VM, where the benchmark's
   windows and bounds were sized. *)
let nominal_ns = 250_000.0

let loop () =
  let h = ref 0 in
  for i = 0 to iterations - 1 do
    let k = (i * 7919) land 1023 in
    Hashtbl.replace table k (Hashtbl.find table k + 1);
    h :=
      (!h * 31)
      + Char.code (Bytes.unsafe_get bytes (i land 1023))
      + Char.code (Bytes.unsafe_get bytes ((i * 13) land 1023))
  done;
  !h

(* One timed run of the loop after an untimed one, ns. Always on the
   calling domain: two loops at once would mostly measure each other,
   since the host's two vCPUs share a core. *)
let sample () =
  ignore (Sys.opaque_identity (loop ()));
  let t0 = Clock.now_ns () in
  ignore (Sys.opaque_identity (loop ()));
  float_of_int (Clock.now_ns () - t0)

(* The factor host times are multiplied by, from loop samples taken
   around them: above 1 on a host faster than nominal. *)
let factor samples = nominal_ns /. Stats.median samples

(* Per-section factors from one loop sample after each section: the
   median over a window of [half] samples either side smooths the
   loop's own jitter without blurring drift over more than a few
   sections. *)
let factors ?(half = 4) samples =
  let n = Array.length samples in
  Array.init n (fun i ->
      let lo = max 0 (i - half) and hi = min (n - 1) (i + half) in
      factor (Array.to_list (Array.sub samples lo (hi - lo + 1))))
