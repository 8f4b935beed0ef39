#!/bin/sh
# The full local gate, in dependency order: formatting, build, unit
# tests, usage errors, the exact micro-benchmark gate, trace and SLO
# determinism, crash-plan fuzzer, model checker, media faults and the
# seeded-interleaving gate.
# Each stage is the corresponding single-purpose script (or dune
# target), so a failure names the stage and can be re-run in isolation.
# The fuzzer and model-checker stages sweep both settings of the one
# batching switch (Config.batch): batched, the default, and synchronous
# (--no-batch); the media stage adds poisoned-line / bit-rot / scrub
# plans on top.
#
# Each stage prints its wall-clock seconds, and the run ends with a
# table of them.
#
# Usage: scripts/check_all.sh
# CHECK_FAST=1 trims the fuzz, model, media and interleave budgets
# (smoke coverage, not the gate).
set -eu
cd "$(dirname "$0")/.."

timings=""

stage() {
  name="$1"
  echo ""
  echo "==> $name"
  shift
  t0=$(date +%s%N)
  "$@"
  ms=$((($(date +%s%N) - t0) / 1000000))
  secs=$(printf '%d.%03d' $((ms / 1000)) $((ms % 1000)))
  echo "<== $secs s"
  timings="$timings$(printf '%9s s  %s' "$secs" "$name")
"
}

stage "fmt (scripts/fmt_check.sh)" sh scripts/fmt_check.sh
stage "build (dune build)" dune build
stage "unit tests (dune runtest)" dune runtest
stage "usage errors exit 124 (scripts/usage_check.sh)" sh scripts/usage_check.sh
stage "micro bench: words and makespans exact, host ns reported (scripts/bench_check.sh)" \
  sh scripts/bench_check.sh
stage "trace determinism (scripts/trace_check.sh)" sh scripts/trace_check.sh
stage "slo attribution gate (scripts/slo_check.sh)" sh scripts/slo_check.sh
stage "crash fuzzer (scripts/fuzz_check.sh)" sh scripts/fuzz_check.sh
stage "model checker (scripts/model_check.sh)" sh scripts/model_check.sh
stage "media faults (scripts/fault_media_check.sh)" sh scripts/fault_media_check.sh
stage "seeded-interleaving gate (scripts/interleave_check.sh)" sh scripts/interleave_check.sh

echo ""
echo "stage wall clock:"
printf '%s' "$timings"
echo ""
echo "all checks OK"
