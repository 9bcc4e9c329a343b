#!/usr/bin/env bash
# Build the benchmark from source and run it, passing every argument on:
#   bash bench/perf/run.sh --workload fig2_mix --seed 1 --seconds 10 --trace 0
# Run from the root of a checkout. Build output goes to stderr, so the
# last line of stdout stays the benchmark's JSON summary.
set -eu
cd "$(dirname "$0")/../.."
# Keep the build inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/perf/main.exe >&2
exec ./_build/default/bench/perf/main.exe "$@"
