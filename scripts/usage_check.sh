#!/bin/sh
# Usage-error gate: malformed command-line input is a usage error (exit
# 124, naming the flag), never an uncaught exception (125) or a silent
# ok (0). Each value is parsed where nvalloc-cli reads it:
# - counts: --runs, --ops, --threads and --crash below 1, --domains
#   outside 1..64;
# - names: allocator, workload, experiment id and consistency variant;
# - repro lines: --plan and --scenario, and a --plan whose rcrash is
#   below 1;
# - a non-positive --window-ns, a negative --tail, --poison or
#   --bitrot, and a missing slo --check baseline;
# - files: an unwritable trace/slo output (--out, --hist, --folded,
#   --prom) and an slo --check baseline that is not JSON, caught before
#   any workload runs.
#
# Usage: scripts/usage_check.sh
set -eu
cd "$(dirname "$0")/.."
cli=./_build/default/bin/nvalloc_cli.exe
dune build bin/nvalloc_cli.exe
. scripts/must_exit.sh

for args in \
  "fuzz --runs=-5" "fuzz --domains 0" "fuzz --runs=-5 --domains 2" "fuzz --domains 65" \
  "check --runs=-2" "check --ops=0" "check --threads 0" "check --domains 65" \
  "check --crash 0" "check --crash=-5" \
  "stats Foo" "flushes Foo" "trace --allocator Foo" "slo --allocator Foo" \
  "check --allocators Foo" "check --allocators NVAlloc-LOG,Foo" \
  "trace nosuch" "slo nosuch" "run nosuchfig" "run fig1a nosuchfig" "fuzz --variant xyz" \
  "fuzz --plan garbage" "check --scenario garbage" \
  "slo --window-ns 0" "slo --window-ns=-1" "slo --check /nonexistent/baseline.json" \
  "fuzz --tail=-1" "fuzz --poison=-3" "fuzz --bitrot=-3" \
  "trace --out /nonexistent/x.json --threads 1 shbench" "trace --hist /nonexistent/h.csv" \
  "slo --out /nonexistent/r.txt" "slo --folded /nonexistent/f.txt" \
  "slo --prom /nonexistent/p.txt" "slo --check README.md"; do
  must_exit 124 "$args" "$cli" $args
done
# A plan holds spaces, so it gets its own quoted stanza.
plan='v=log seed=1 ops=10 crash=1 torn=line tseed=0 rcrash=0'
must_exit 124 "fuzz --plan '$plan'" "$cli" fuzz --plan "$plan"
