#!/bin/sh
# Print one line per command: its exit status, the SHA-256 of its
# stdout (or of the file it writes, for the export flags that take a
# path), and the command. Run it on two builds, a parent commit's CLI
# and a change's, then diff the two outputs: a change that must not
# alter behaviour prints the same lines. It compares two builds, so it
# is not a check_all.sh stage. The commands take about 40 seconds.
#
# Usage: scripts/output_digest.sh [CLI]
#   CLI defaults to this checkout's _build/default/bin/nvalloc_cli.exe,
#   built first. For example:
#   scripts/output_digest.sh /path/to/parent/_build/default/bin/nvalloc_cli.exe >parent.txt
#   scripts/output_digest.sh >change.txt
#   diff parent.txt change.txt
set -eu
if [ $# -ge 1 ]; then
  cli="$1"
else
  root="$(dirname "$0")/.."
  (cd "$root" && dune build bin/nvalloc_cli.exe)
  cli="$root/_build/default/bin/nvalloc_cli.exe"
fi
out="$(mktemp)"
file="$(mktemp)"
trap 'rm -f "$out" "$file"' EXIT

digest() {
  status=0
  "$cli" "$@" >"$out" 2>/dev/null || status=$?
  sum="$(sha256sum <"$out" | cut -d ' ' -f 1)"
  echo "$status $sum $*"
}

# The command's last argument is an export flag; the file it names is
# digested instead of stdout.
digest_file() {
  status=0
  : >"$file"
  "$cli" "$@" "$file" >/dev/null 2>&1 || status=$?
  sum="$(sha256sum <"$file" | cut -d ' ' -f 1)"
  echo "$status $sum $* FILE"
}

digest stats --json
digest stats --no-batch --json
digest stats --json NVAlloc-GC
digest stats --json NVAlloc-IC
digest flushes
digest trace larson --threads 2
digest trace larson --threads 2 --no-batch
digest_file trace larson --threads 2 --hist
digest slo larson
digest slo larson --no-batch
digest slo larson --json
digest slo larson --no-batch --json
digest_file slo larson --folded
digest_file slo larson --prom
digest check --seed 1 --runs 20
digest check --seed 1 --runs 20 --no-batch
digest check --seed 1 --runs 2 --ops 800 --threads 2 --crash 100 \
  --allocators NVAlloc-LOG,NVAlloc-GC,NVAlloc-IC
digest check --seed 1 --runs 2 --ops 800 --threads 2 --crash 100 \
  --allocators NVAlloc-LOG,NVAlloc-GC,NVAlloc-IC --no-batch
digest fuzz --seed 2 --runs 1000
digest fuzz --no-batch --seed 2 --runs 1000
digest fuzz --variant gc --seed 5 --runs 600
digest fuzz --variant ic --seed 5 --runs 400
digest fuzz --media --seed 4 --runs 200
digest fuzz --seed 1 --runs 1000
# Recovery outcomes, not just verdicts: the double-release repros print
# their assert and a telemetry tail, the GC torn-slab plan its report.
digest fuzz --plan "v=log seed=543089 ops=116 crash=512 torn=line tseed=561649 rcrash=-"
digest fuzz --no-batch --plan "v=log seed=220986 ops=144 crash=584 torn=line tseed=21856 rcrash=-"
digest fuzz --no-batch --plan "v=log seed=123637 ops=236 crash=852 torn=line tseed=720335 rcrash=-"
digest fuzz --plan "v=gc seed=524170 ops=474 crash=185 torn=suffix tseed=116043 rcrash=32"
digest run fig2 fig11 fig17 fig18 ext-variants
digest run fig9 fig12
