#!/bin/sh
# The perf gate: build the benchmark harness and check the committed
# baseline (BENCH_micro.json) exactly — minor words per run (any
# increase fails) and simulated makespans (any difference fails); both
# are deterministic. Host ns/run is then printed against the baseline's
# fixed origin, as a trajectory with no verdict. See Bench_micro.
# Exit 0 ok, 1 an exact entry differs, 2 unreadable baseline.
# Usage: scripts/bench_check.sh [baseline.json]
set -eu
cd "$(dirname "$0")/.."
baseline="${1:-BENCH_micro.json}"
dune build bench/main.exe
exec ./_build/default/bench/main.exe micro --check "$baseline"
