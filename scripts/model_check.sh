#!/bin/sh
# Build the CLI and run the model-based differential checker on its
# committed default budget, then the mutation smoke tests.
#
# 1. Clean gate, batched pipeline (the default config):
#    seed-deterministic histories over every allocator (NVAlloc-LOG/GC/IC
#    + the six baselines), checked per step against the reference heap
#    model and post-run against NVAlloc's deep heap-integrity walker
#    with zero persist-ordering violations; plus a crash scenario per
#    NVAlloc variant through the post-crash oracle.
# 2. Clean gate, synchronous pipeline (--no-batch, Config.batch off):
#    the same scenarios, so both pipelines stay independently green.
# 3. Mutation smoke: the budget with the PR 2 refill WAL-before-bitmap
#    ordering bug re-introduced (--mutate wal-flush) must FAIL, the
#    batched pipeline's "forgotten commit record" mutation (--mutate
#    wal-record: group effects persist while the group's entries never
#    do) must FAIL, and the packed-header mis-decode (--mutate header:
#    every header read flips the size-class field's lowest bit) must
#    FAIL with a counterexample (exit 1, scripts/must_exit.sh) — if any
#    seeded bug survives the checker, or a stanza exits any other way,
#    this script exits non-zero.
#
# Replay a failure with: nvalloc-cli check [--no-batch] --scenario "<line>"
# Usage: scripts/model_check.sh [seed] [runs]
# CHECK_FAST=1 trims the budget (smoke coverage, not the gate).
set -eu
cd "$(dirname "$0")/.."
seed="${1:-1}"
runs="${2:-2}"
ops=2000
crash_ops=800
mut_runs=8
mut_ops=1000
if [ "${CHECK_FAST:-0}" = "1" ]; then
  runs=1
  ops=800
  crash_ops=400
  mut_runs=4
  mut_ops=500
fi
cli=./_build/default/bin/nvalloc_cli.exe
dune build bin/nvalloc_cli.exe
. scripts/must_exit.sh

echo "model check: clean gate, batched pipeline (all allocators)"
"$cli" check --seed "$seed" --runs "$runs" --ops "$ops" --threads 4

echo "model check: crash scenarios, batched pipeline (NVAlloc variants)"
"$cli" check --seed "$seed" --runs "$runs" --ops "$crash_ops" --threads 2 --crash 100 \
  --allocators NVAlloc-LOG,NVAlloc-GC,NVAlloc-IC

echo "model check: clean gate, synchronous pipeline (NVAlloc variants)"
"$cli" check --no-batch --seed "$seed" --runs "$runs" --ops "$ops" --threads 4 \
  --allocators NVAlloc-LOG,NVAlloc-GC,NVAlloc-IC

echo "model check: crash scenarios, synchronous pipeline (NVAlloc variants)"
"$cli" check --no-batch --seed "$seed" --runs "$runs" --ops "$crash_ops" --threads 2 --crash 100 \
  --allocators NVAlloc-LOG,NVAlloc-GC,NVAlloc-IC

echo "model check: mutation smoke (--mutate wal-flush must be caught)"
must_exit 1 "the seeded WAL ordering bug" \
  "$cli" check --seed "$seed" --runs "$mut_runs" --ops "$mut_ops" --threads 2 \
  --mutate wal-flush --allocators NVAlloc-LOG

echo "model check: mutation smoke (--mutate wal-record must be caught)"
must_exit 1 "the forgotten-commit-record mutation" \
  "$cli" check --seed "$seed" --runs "$mut_runs" --ops "$mut_ops" --threads 2 --crash 200 \
  --mutate wal-record --allocators NVAlloc-LOG

echo "model check: mutation smoke (--mutate header must be caught)"
must_exit 1 "the packed-header mis-decode" \
  "$cli" check --seed "$seed" --runs "$mut_runs" --ops "$mut_ops" --threads 2 \
  --mutate header --allocators NVAlloc-LOG
