(* The CLOCK_MONOTONIC source behind the runtime's own histograms
   ([Telemetry.Tclock]), read through bechamel's unboxed stub directly:
   [Tclock.now_ns] returns a boxed int64, three words per stamp that
   would land in the allocation the benchmark measures. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
