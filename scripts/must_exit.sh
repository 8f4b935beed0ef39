# Shared by the gates' stanzas that need one exit status; sourced, not
# run.
#
# must_exit WANT WHAT CMD...: CMD must exit WANT. nvalloc-cli fuzz and
# check exit 0 when clean, 1 with a counterexample, 124 on a usage
# error (a misspelt name, an out-of-range count, an unparseable repro
# line; scripts/usage_check.sh) and 125 on an uncaught exception. So a
# mutation stanza wants 1: neither an escaped bug (0) nor a broken
# stanza (124, 125) passes for a catch.
must_exit() {
  want="$1"
  what="$2"
  shift 2
  status=0
  "$@" >/dev/null 2>&1 || status=$?
  if [ "$status" != "$want" ]; then
    echo "FAIL: $what: exit $status, expected $want" >&2
    exit 1
  fi
  echo "$what: exit $want, as it must be"
}
