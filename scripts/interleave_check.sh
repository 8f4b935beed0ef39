#!/bin/sh
# Seeded-interleaving gate: the model checker's histories under the
# scheduler's seeded pick rule (`check --interleave`), which steps a
# uniformly chosen runnable thread instead of the one with the smallest
# simulated clock. Each scenario's op order is a pure function of its
# seed (printed as sched=N), so every failure replays and shrinks.
#
# 1. Interleave gate, batched pipeline: >= 50 histories across the three
#    NVAlloc variants plus two baselines, with full lockstep model
#    validation (publication checks, byte bounds, persist-ordering gate,
#    iter_live cross-check, deep integrity walk).
# 2. The same for crash scenarios (post-crash oracle) and the
#    synchronous pipeline.
# 3. Determinism, and --domains changes wall clock only: `check` and
#    `fuzz` print the same bytes and exit status for the same seed
#    without --domains and with --domains 4, on budgets that must stay
#    clean (exit 0) and on ones that must fail (exit 1: a mutated check
#    or fuzz, whose lowest failing case is shrunk the same way at any
#    domain count). Both oracles run one search, so a parallel sweep is
#    the sequential one.
# 4. Mutation teeth: the packed-header mis-decode and the WAL-flush
#    ordering bug must FAIL under --interleave, with a counterexample
#    (exit 1, scripts/must_exit.sh).
# 5. Wall-time speedup of a parallel seed sweep vs one domain — measured
#    always, ENFORCED (> 1.5x) only on hosts with >= 4 cores (a 1-core
#    host can only lose from domain switching; the number is still
#    printed so EXPERIMENTS.md stays honest).
#
# Replay a failure with: nvalloc-cli check --scenario "<line>"
# Usage: scripts/interleave_check.sh [seed]
# CHECK_FAST=1 trims the budget (smoke coverage, not the gate).
set -eu
cd "$(dirname "$0")/.."
seed="${1:-1}"
clean_runs=12
base_runs=6
crash_runs=2
sync_runs=4
ops=1500
crash_ops=800
mut_runs=4
mut_ops=600
sweep_runs=12
sweep_ops=800
if [ "${CHECK_FAST:-0}" = "1" ]; then
  clean_runs=3
  base_runs=2
  crash_runs=1
  sync_runs=1
  ops=600
  crash_ops=400
  mut_runs=2
  mut_ops=400
  sweep_runs=4
  sweep_ops=400
fi
cli=./_build/default/bin/nvalloc_cli.exe
dune build bin/nvalloc_cli.exe
. scripts/must_exit.sh

cores="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
par_domains=$((cores < 64 ? cores : 64)) # --domains takes 1..64
a=/tmp/interleave_check_a.$$
b=/tmp/interleave_check_b.$$
trap 'rm -f "$a" "$b"' EXIT

# same_across_domains WANT CMD...: run one search without --domains
# into $a and with --domains 4 into $b, exit status included. The first
# run must exit WANT (0: clean, 1: a counterexample) and the second must
# print the same bytes.
same_across_domains() {
  want="$1"
  shift
  status=0
  "$cli" "$@" >"$a" 2>&1 || status=$?
  echo "exit $status" >>"$a"
  if [ "$status" != "$want" ]; then
    echo "FAIL: $1 exited $status without --domains, expected $want" >&2
    cat "$a" >&2
    exit 1
  fi
  status=0
  "$cli" "$@" --domains 4 >"$b" 2>&1 || status=$?
  echo "exit $status" >>"$b"
  if ! cmp -s "$a" "$b"; then
    echo "FAIL: $1 output differs between no --domains and --domains 4" >&2
    diff "$a" "$b" >&2 || true
    exit 1
  fi
  echo "same bytes and exit $want at --domains 4, as it must be"
}

echo "interleave gate: batched pipeline (NVAlloc variants, ${clean_runs} histories each)"
"$cli" check --interleave --seed "$seed" --runs "$clean_runs" --ops "$ops" --threads 4 \
  --allocators NVAlloc-LOG,NVAlloc-GC,NVAlloc-IC

echo "interleave gate: batched pipeline (baselines, ${base_runs} histories each)"
"$cli" check --interleave --seed "$seed" --runs "$base_runs" --ops "$ops" --threads 4 \
  --allocators PMDK,Makalu

echo "interleave gate: crash scenarios (NVAlloc variants, ${crash_runs} histories each)"
"$cli" check --interleave --seed "$seed" --runs "$crash_runs" --ops "$crash_ops" --threads 2 \
  --crash 100 --allocators NVAlloc-LOG,NVAlloc-GC,NVAlloc-IC

echo "interleave gate: synchronous pipeline (NVAlloc variants, ${sync_runs} histories each)"
"$cli" check --interleave --no-batch --seed "$seed" --runs "$sync_runs" --ops "$ops" \
  --threads 4 --allocators NVAlloc-LOG,NVAlloc-GC,NVAlloc-IC

echo "interleave gate: same seed, same output at any --domains (clean checks)"
same_across_domains 0 check --interleave --seed "$seed" --runs "$sweep_runs" --ops "$sweep_ops" \
  --threads 4 --allocators NVAlloc-LOG,PMDK
same_across_domains 0 check --interleave --seed "$seed" --runs "$sweep_runs" --ops "$sweep_ops" \
  --threads 2 --allocators NVAlloc-LOG

echo "interleave gate: same seed, same output at any --domains (shrunk check counterexample)"
same_across_domains 1 check --interleave --mutate header --seed "$seed" --runs "$mut_runs" \
  --ops "$mut_ops" --threads 4 --allocators NVAlloc-LOG

echo "interleave gate: same seed, same output at any --domains (clean fuzz)"
same_across_domains 0 fuzz --seed "$seed" --runs "$sweep_runs"

echo "interleave gate: same seed, same output at any --domains (shrunk fuzz counterexample)"
same_across_domains 1 fuzz --mutate wal-flush --variant log --seed 1 --runs 30

for m in header wal-flush; do
  echo "interleave gate: mutation smoke (--mutate $m must be caught under --interleave)"
  must_exit 1 "the $m mutation under --interleave" \
    "$cli" check --interleave --mutate "$m" --seed "$seed" --runs "$mut_runs" \
    --ops "$mut_ops" --threads 2 --allocators NVAlloc-LOG
done

echo "interleave gate: wall-time speedup of a parallel seed sweep (host has ${cores} core(s))"
t0=$(date +%s%N)
"$cli" check --seed "$seed" --runs "$sweep_runs" --ops "$sweep_ops" --threads 2 \
  --allocators NVAlloc-LOG --domains 1 >/dev/null
t1=$(date +%s%N)
"$cli" check --seed "$seed" --runs "$sweep_runs" --ops "$sweep_ops" --threads 2 \
  --allocators NVAlloc-LOG --domains "$par_domains" >/dev/null
t2=$(date +%s%N)
seq_ms=$(( (t1 - t0) / 1000000 ))
par_ms=$(( (t2 - t1) / 1000000 ))
speedup=$(awk "BEGIN { if ($par_ms > 0) printf \"%.2f\", $seq_ms / $par_ms; else print 0 }")
echo "sweep: 1 domain ${seq_ms} ms, ${par_domains} domain(s) ${par_ms} ms, speedup ${speedup}x"
if [ "$cores" -ge 4 ]; then
  ok=$(awk "BEGIN { print ($speedup > 1.5) ? 1 : 0 }")
  if [ "$ok" != "1" ]; then
    echo "FAIL: speedup ${speedup}x <= 1.5x on a ${cores}-core host" >&2
    exit 1
  fi
  echo "speedup gate passed (> 1.5x)"
else
  echo "speedup gate skipped (needs >= 4 cores; measured number is informational)"
fi
