#!/usr/bin/env bash
# End-to-end check of the dcs_mine command line (wired into ctest as
# `check_cli`, label unit). Writes two tiny edge lists into a work directory
# and checks these cases:
#   1. a plain run exits 0 and prints a DCSGA result line;
#   2. --deadline 1e-9 expires before the job runs and exits 3;
#   3. flags missing from the flag table (--fast-math, --shared-cache) are
#      rejected with exit 2 and an "unknown flag" message;
#   4. --tenants 3 exits 0, prints a DCSGA result line and the bit-identical
#      summary with the shared cache's hit/miss counts;
#   5. --async with a store whose every append fails exits 1 and reports
#      the degraded health rung.
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

for removed in "--fast-math" "--shared-cache 2"; do
  # shellcheck disable=SC2086  # split the flag from its value
  out=$("$mine" --g1 "$g1" --g2 "$g2" $removed 2>&1)
  code=$?
  [ "$code" -eq 2 ] || fail "$removed exited $code, want 2: $out"
  printf '%s\n' "$out" | grep -q "unknown flag '${removed%% *}'" \
    || fail "$removed was not reported as an unknown flag: $out"
done

out=$("$mine" --g1 "$g1" --g2 "$g2" --tenants 3 2>&1)
code=$?
[ "$code" -eq 0 ] || fail "--tenants 3 exited $code, want 0: $out"
printf '%s\n' "$out" | grep -q '^DCSGA #1: ' \
  || fail "--tenants 3 printed no DCSGA line: $out"
printf '%s\n' "$out" \
  | grep -q '^# multi-tenant: 3 tenants, .*([0-9]* hits / 1 misses, [0-9]* bytes resident); all responses bit-identical$' \
  || fail "--tenants 3 printed no bit-identical summary with cache counts: $out"

# A fresh store, so the run must write its pipeline back (and fail to).
rm -f "$work/s"
out=$("$mine" --g1 "$g1" --g2 "$g2" --async --store "$work/s" \
  --inject store.append:every=1 2>&1)
code=$?
[ "$code" -eq 1 ] || fail "failing store write-back exited $code, want 1: $out"
printf '%s\n' "$out" | grep -q '^# health: degraded' \
  || fail "failing store write-back did not report degraded health: $out"

[ "$status" -eq 0 ] && echo "check_cli: ok"
exit "$status"
