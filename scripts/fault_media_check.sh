#!/bin/sh
# Build the CLI and sweep the media-fault pipeline: crash plans that
# also carry poisoned-line and at-rest bit-rot injections (and scrub
# passes) over both persistence pipelines, then the scrub mutation
# smoke.
#
# 1. Clean gate, batched pipeline: deterministic media plans (poison +
#    bit-rot + scrub drawn per plan, LOG variant, replication forced
#    on) through the full crash oracle — demand repair, quarantine and
#    the hardened recovery must keep every plan green.
# 2. Clean gate, synchronous pipeline (--no-batch): the same budget
#    with batching forced off.
# 3. Mutation smoke (--mutate scrub: scrub blesses a damaged primary
#    instead of repairing it from the replica). A pinned plan must
#    FAIL under the mutation and stay green without it, and a short
#    sampled hunt must find the bug on its own. Both must end in a
#    counterexample (exit 1, scripts/must_exit.sh) — if the blessed
#    corruption survives the oracle, or a stanza exits any other way,
#    this script exits non-zero.
#
# Replay a failure with: nvalloc-cli fuzz [--no-batch] --plan "<line>"
# Usage: scripts/fault_media_check.sh [seed] [runs]
# CHECK_FAST=1 trims the sweep budgets (smoke coverage, not the gate).
set -eu
cd "$(dirname "$0")/.."
seed="${1:-11}"
runs="${2:-40}"
hunt_runs=40
if [ "${CHECK_FAST:-0}" = "1" ]; then
  runs=15
  hunt_runs=20
fi
cli=./_build/default/bin/nvalloc_cli.exe
dune build bin/nvalloc_cli.exe
. scripts/must_exit.sh

echo "media fuzz: batched pipeline ($runs media plans)"
"$cli" fuzz --media --seed "$seed" --runs "$runs"

echo "media fuzz: synchronous pipeline ($runs media plans)"
"$cli" fuzz --no-batch --media --seed "$seed" --runs "$runs"

# The pinned plan poisons a live slab header and the superblock right
# before its scrub pass: a clean scrub repairs both from their
# replicas; a blessing scrub hands recovery a checksum-"valid" garbage
# superblock, which the oracle must report.
plan="v=log seed=67770 ops=40 crash=240 torn=line tseed=368050 rcrash=- poison=1 pseed=126106 rot=2 rseed=769496 scrub=1"

echo "media mutation smoke: pinned scrub plan, clean run must pass"
"$cli" fuzz --plan "$plan"

echo "media mutation smoke: pinned scrub plan under --mutate scrub must FAIL"
must_exit 1 "the blessing-scrub mutation on the pinned plan" \
  "$cli" fuzz --plan "$plan" --mutate scrub

echo "media mutation smoke: sampled hunt ($hunt_runs plans) must find --mutate scrub"
must_exit 1 "the blessing-scrub mutation in the sampled hunt" \
  "$cli" fuzz --media --mutate scrub --seed 7 --runs "$hunt_runs"
