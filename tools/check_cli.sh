#!/usr/bin/env bash
# End-to-end check of the dcs_mine command line (wired into ctest as
# `check_cli`, label unit). Writes two tiny edge lists into a work directory
# and checks three cases:
#   1. a plain run exits 0 and prints a DCSGA result line;
#   2. --deadline 1e-9 expires before the job runs and exits 3;
#   3. a flag missing from the flag table (--fast-math) is rejected with
#      exit 2 and an "unknown flag" message.
#
# Usage: check_cli.sh <path-to-dcs_mine> <work-dir>

set -u

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <path-to-dcs_mine> <work-dir>" >&2
  exit 2
fi
mine="$1"
work="$2"
mkdir -p "$work" || exit 1
g1="$work/cli_g1.el"
g2="$work/cli_g2.el"

# G1: a sparse baseline. G2: the same plus a heavy triangle {0,1,2}, so the
# difference graph has a positive clique for DCSGA to report.
printf '6\n0 1 1\n3 4 1\n4 5 1\n' > "$g1"
printf '6\n0 1 4\n0 2 4\n1 2 4\n3 4 1\n4 5 1\n' > "$g2"

status=0
fail() {
  echo "check_cli: $*" >&2
  status=1
}

out=$("$mine" --g1 "$g1" --g2 "$g2" --quiet 2>&1)
code=$?
[ "$code" -eq 0 ] || fail "plain run exited $code, want 0: $out"
printf '%s\n' "$out" | grep -q '^DCSGA #1: ' \
  || fail "plain run printed no DCSGA line: $out"

out=$("$mine" --g1 "$g1" --g2 "$g2" --deadline 1e-9 2>&1)
code=$?
[ "$code" -eq 3 ] || fail "--deadline 1e-9 exited $code, want 3: $out"

out=$("$mine" --g1 "$g1" --g2 "$g2" --fast-math 2>&1)
code=$?
[ "$code" -eq 2 ] || fail "--fast-math exited $code, want 2: $out"
printf '%s\n' "$out" | grep -q "unknown flag '--fast-math'" \
  || fail "--fast-math was not reported as an unknown flag: $out"

[ "$status" -eq 0 ] && echo "check_cli: ok"
exit "$status"
