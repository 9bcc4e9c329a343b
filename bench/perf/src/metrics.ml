(* The metric catalogue: every name the benchmark reports, with its unit
   and which direction is better. BENCHMARK.json lists the same names
   (a test holds the two together). *)

type better = Lower | Higher
type def = { name : string; unit : string; better : better }

let d name unit better = { name; unit; better }

(* What a user of the data plane sees; reported by every untraced run. *)
let end_to_end =
  [
    d "setup_s" "s" Lower;
    d "pkts_per_s" "pkt/s" Higher;
    d "pkt_ns_p50" "ns" Lower;
    d "pkt_ns_p99" "ns" Lower;
    d "alloc_words_per_pkt" "words" Lower;
    d "live_heap_mb" "MiB" Lower;
  ]

(* Single layers, named by module; reported by every traced run. *)
let per_layer =
  [
    d "compiler.compile_ms" "ms" Lower;
    d "placement.solve_ms" "ms" Lower;
    d "ctrl.fib_install_ms" "ms" Lower;
    d "runtime.create_ms" "ms" Lower;
    d "pipelet.parse_ns" "ns" Lower;
    d "pipelet.parse_words" "words" Lower;
    d "pipelet.deparse_ns" "ns" Lower;
    d "pipelet.deparse_words" "words" Lower;
    d "table.lookups_per_pkt" "count" Lower;
    d "table.hit_ratio" "ratio" Higher;
    d "table.exact_lookup_ns" "ns" Lower;
    d "table.lpm_lookup_ns" "ns" Lower;
    d "table.ternary_lookup_ns" "ns" Lower;
    d "chip.inject_ns_p50" "ns" Lower;
    d "chip.inject_ns_p99" "ns" Lower;
    d "chip.inject_words" "words" Lower;
    d "chip.passes_per_pkt" "count" Lower;
    d "chip.recircs_per_pkt" "count" Lower;
    d "chip.replicate_ms" "ms" Lower;
    d "runtime.process_ns_p50" "ns" Lower;
    d "runtime.process_words" "words" Lower;
    d "runtime.punts_per_pkt" "count" Lower;
    d "runtime.fast_pkt_ns_p50" "ns" Lower;
    d "runtime.batch_self_us" "us" Lower;
    d "handler.calls_per_pkt" "count" Lower;
    d "flow_cache.hit_ratio" "ratio" Higher;
    d "flow_cache.hit_ns_p50" "ns" Lower;
    d "flow_cache.miss_ns_p50" "ns" Lower;
    d "flow_cache.uncacheable_ratio" "ratio" Lower;
    d "flow_cache.evictions_per_kpkt" "count" Lower;
    d "flow_cache.invalidations_per_kpkt" "count" Lower;
    d "state_store.occupancy" "count" Lower;
    d "state_store.hit_ratio" "ratio" Higher;
    d "state_store.inserts_per_kpkt" "count" Lower;
    d "state_store.evictions_per_kpkt" "count" Lower;
    d "ctrl.apply_ns_per_op" "ns" Lower;
    d "ctrl.add_ns_p50" "ns" Lower;
    d "ctrl.mod_ns_p50" "ns" Lower;
    d "ctrl.del_ns_p50" "ns" Lower;
    d "ctrl.ops_failed" "count" Lower;
    d "shard.batch_ms_p50" "ms" Lower;
    d "shard.startup_us_p50" "us" Lower;
    d "shard.tail_us_p50" "us" Lower;
    d "shard.busy_frac" "ratio" Higher;
    d "shard.skew" "ratio" Lower;
    d "gc.minor_collections_per_kpkt" "count" Lower;
    d "gc.major_collections_per_kpkt" "count" Lower;
    d "gc.promoted_words_per_pkt" "words" Lower;
    d "telemetry.trace_overhead_pct" "%" Lower;
  ]

let find name = List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)
