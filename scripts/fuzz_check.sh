#!/bin/sh
# Build the CLI and run the crash-plan fuzzer on its committed default
# budget, in both persistence pipelines:
#
# 1. Batched (the default config): 200 deterministic plans from seed 1,
#    sweeping all three consistency variants with random crash points,
#    torn in-flight lines and crashes armed inside recovery — every
#    crash point also lands inside flush-coalescing buffers, open WAL
#    groups and async-checkpoint windows.
# 2. Synchronous (--no-batch, Config.batch off): half the budget, at
#    least one plan, so a regression in the plain path cannot hide
#    behind the batched one (or vice versa).
#
# Exits non-zero (printing the shrunk one-line repro) if any plan
# violates the recovery invariants.
#
# Replay a failure with: nvalloc-cli fuzz [--no-batch] --plan "<line>"
# Usage: scripts/fuzz_check.sh [seed] [runs]
# CHECK_FAST=1 trims the budget (smoke coverage, not the gate).
set -eu
cd "$(dirname "$0")/.."
seed="${1:-1}"
runs="${2:-200}"
if [ "${CHECK_FAST:-0}" = "1" ] && [ $# -lt 2 ]; then
  runs=60
fi
cli=./_build/default/bin/nvalloc_cli.exe
dune build bin/nvalloc_cli.exe

echo "fuzz: batched pipeline ($runs plans)"
"$cli" fuzz --seed "$seed" --runs "$runs"

sync_runs=$((runs / 2))
if [ "$sync_runs" -lt 1 ]; then
  sync_runs=1
fi
echo "fuzz: synchronous pipeline ($sync_runs plans)"
exec "$cli" fuzz --no-batch --seed "$seed" --runs "$sync_runs"
