#!/usr/bin/env bash
# End-to-end benchmark runner (see bench/e2e/README.md). Run it from the
# repository root:
#
#   bash bench/e2e/run.sh [--seed N] [--seconds S] [--trace 0|1] [--workload W]... [W...]
#
# It builds bench/e2e/e2e.exe from source into .bench_build/ and runs each
# workload (default: all five) in its own process, because Gc
# top_heap_words only grows and the telemetry capture registry is
# process-global. Each workload prints `name value unit` lines, then one
# JSON result line (end-to-end metrics with --trace 0, per-layer metrics
# with --trace 1); its full output is also kept in
# bench/e2e/results/<workload>-seed<N>.txt and the JSON line in
# bench/e2e/results/<workload>-seed<N>.json.
#
# Exit status: non-zero when the build fails, when a workload dies, or
# when a workload's determinism self-check fails (e2e.exe exits 3: a
# simulated makespan or device counter differed across reps, or between
# the untraced and traced reps). An oracle failure in fuzz-sweep is
# reported (fail_ratio, one repro line per failing plan) but is not a
# self-check failure.
set -euo pipefail

seed=1
seconds=15
trace=0
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --seed | --seconds | --trace | --workload)
      [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
      case "$1" in
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        --trace) trace=$2 ;;
        --workload) workloads+=("$2") ;;
      esac
      shift 2 ;;
    -*) echo "run.sh: unknown option $1" >&2; exit 2 ;;
    *) workloads+=("$1"); shift ;;
  esac
done
[ ${#workloads[@]} -gt 0 ] || workloads=(tt-small larson-large frag-w3 larson-slo fuzz-sweep)

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from the repository root (no dune-project or lib/ here)" >&2
  exit 2
fi

build=.bench_build
dune build --root . --build-dir "$build" ./bench/e2e/e2e.exe >&2

# Keep freed memory in glibc's heap instead of returning it to the kernel
# (no mmap for large blocks, no trimming). Otherwise every construction
# and rep faults its memory in afresh, and page-fault cost, which swings
# with the load on the host, makes up most of setup_s.
export GLIBC_TUNABLES=${GLIBC_TUNABLES:+$GLIBC_TUNABLES:}glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=4294967296
exe=$build/default/bench/e2e/e2e.exe
out=bench/e2e/results
mkdir -p "$out"

status=0
for w in "${workloads[@]}"; do
  base=$out/$w-seed$seed
  "$exe" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" >"$base.txt" \
    || status=$?
  cat "$base.txt"
  tail -n 1 "$base.txt" >"$base.json"
done
exit "$status"
