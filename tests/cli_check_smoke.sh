#!/bin/sh
# Tier-1 smoke for `gnnpart_cli check`: every study partitioner must pass
# full validation (structure + replica masks + bit-exact metric
# recomputation) on every generator category, and argument errors must
# exit non-zero with usage instead of being silently ignored.
# Usage: cli_check_smoke.sh <path-to-gnnpart_cli>
set -eu

CLI="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# All five dataset categories of the study (hyperlink, social, wiki, road,
# co-purchase), small scales so the 12-partitioner sweep stays fast.
for ds in HW DI EN EU OR; do
  case "$ds" in
    EU) scale=0.02 ;;
    *) scale=0.1 ;;
  esac
  "$CLI" generate "$ds" "$scale" "$TMP/$ds.bin" 7 > /dev/null
  "$CLI" check "$TMP/$ds.bin" > /dev/null
  out="$("$CLI" check "$TMP/$ds.bin" all 4)"
  echo "$out" | grep -q 'all 6+6 partitioners verified' || {
    echo "FAIL: check all did not verify 12 partitioners on $ds" >&2
    exit 1
  }
  echo "$out" | grep -q 'metrics bit-exact' || {
    echo "FAIL: no bit-exact metric confirmation on $ds" >&2
    exit 1
  }
done

# Single-partitioner forms, edge and vertex.
"$CLI" check "$TMP/HW.bin" HDRF 4 > /dev/null
"$CLI" check "$TMP/HW.bin" vMetis 4 > /dev/null

# Split-merge mode: the plan validators must run, factor 1 must confirm
# serial equivalence, and non-streaming / vertex partitioners must reject
# the flag loudly.
out="$("$CLI" check "$TMP/HW.bin" HDRF 4 --split-factor 4)"
echo "$out" | grep -q 'split-merge plan OK (4 shards)' || {
  echo "FAIL: split-factor 4 plan not validated" >&2
  exit 1
}
out="$("$CLI" check "$TMP/HW.bin" HDRF 4 --split-factor 1)"
echo "$out" | grep -q 'serial-equivalent' || {
  echo "FAIL: split-factor 1 serial equivalence not confirmed" >&2
  exit 1
}
if "$CLI" check "$TMP/HW.bin" Random 4 --split-factor 4 2> /dev/null; then
  echo "FAIL: --split-factor accepted for a non-streaming partitioner" >&2
  exit 1
fi
if "$CLI" check "$TMP/HW.bin" vMetis 4 --split-factor 4 2> /dev/null; then
  echo "FAIL: --split-factor accepted for a vertex partitioner" >&2
  exit 1
fi

# Unknown flags and malformed positionals must exit non-zero with usage.
if "$CLI" check "$TMP/HW.bin" --bogus-flag 2> "$TMP/err.txt"; then
  echo "FAIL: unknown flag accepted" >&2
  exit 1
fi
grep -q 'unknown flag' "$TMP/err.txt"
grep -q 'usage:' "$TMP/err.txt"

if "$CLI" check 2> "$TMP/err.txt"; then
  echo "FAIL: missing positional accepted" >&2
  exit 1
fi
grep -q 'usage:' "$TMP/err.txt"

if "$CLI" check "$TMP/HW.bin" HDRF 2> /dev/null; then
  echo "FAIL: partitioner without k accepted" >&2
  exit 1
fi

if "$CLI" check "$TMP/HW.bin" HDRF 4 surplus 2> /dev/null; then
  echo "FAIL: surplus positional accepted" >&2
  exit 1
fi

if "$CLI" check "$TMP/HW.bin" HDRF 99 2> /dev/null; then
  echo "FAIL: k past kMaxPartitions accepted" >&2
  exit 1
fi

# An unknown subcommand must exit exactly 2 and name itself alongside the
# usage text — not merely "some non-zero status".
set +e
"$CLI" frobnicate > /dev/null 2> "$TMP/err.txt"
rc=$?
set -e
if [ "$rc" -ne 2 ]; then
  echo "FAIL: unknown subcommand exited $rc, expected 2" >&2
  exit 1
fi
grep -q "unknown subcommand 'frobnicate'" "$TMP/err.txt" || {
  echo "FAIL: unknown subcommand error does not name the command" >&2
  exit 1
}
grep -q 'usage:' "$TMP/err.txt" || {
  echo "FAIL: unknown subcommand did not print the usage message" >&2
  exit 1
}

# The two report subcommands `explain` absorbed are unknown now: exit 2
# with the usage message.
for old in trace net; do
  set +e
  "$CLI" "$old-report" "$TMP/HW.bin" HDRF 4 > /dev/null 2> "$TMP/err.txt"
  rc=$?
  set -e
  if [ "$rc" -ne 2 ] || ! grep -q 'usage:' "$TMP/err.txt"; then
    echo "FAIL: $old-report exited $rc or printed no usage, want 2 + usage" >&2
    exit 1
  fi
done

# A bad generate scale fails with a status (1) or a usage error (2), never
# an abort: NaN/inf used to throw std::length_error, 1e9 std::bad_alloc,
# and atof read 'banana' as 0.
for scale in nan inf 1e9 banana; do
  set +e
  "$CLI" generate OR "$scale" "$TMP/bad.txt" > /dev/null 2> "$TMP/err.txt"
  rc=$?
  set -e
  if [ "$rc" -ne 1 ] && [ "$rc" -ne 2 ]; then
    echo "FAIL: generate OR $scale exited $rc, want 1 or 2" >&2
    exit 1
  fi
  grep -q 'scale' "$TMP/err.txt" || {
    echo "FAIL: generate OR $scale error does not name the scale" >&2
    exit 1
  }
done

# A serving window whose request count (rate x duration) overflows a
# batch's 32-bit request indices is refused before any request is
# generated: exit 2, and the message names the product.
set +e
"$CLI" serve-run "$TMP/HW.bin" vLDG 4 --arrival-rate 1e9 --duration 1e6 \
    > /dev/null 2> "$TMP/err.txt"
rc=$?
set -e
if [ "$rc" -ne 2 ] || ! grep -q 'rate x duration' "$TMP/err.txt"; then
  echo "FAIL: serve-run at 1e9 req/s for 1e6 s exited $rc, want 2 naming" \
       "rate x duration" >&2
  exit 1
fi

# String-valued flags given without a value must also fail loudly (the
# value would otherwise silently swallow the next argument or default).
for flag in --metrics-out --trace-out --topology --events-out; do
  if "$CLI" simulate "$TMP/HW.bin" HDRF 4 "$flag" 2> "$TMP/err.txt"; then
    echo "FAIL: trailing $flag without a value accepted" >&2
    exit 1
  fi
  grep -q 'requires a value' "$TMP/err.txt" || {
    echo "FAIL: $flag missing-value error not reported" >&2
    exit 1
  }
done
# Here the positional scan takes --seed as --trace-out's value, so only the
# flag lookup itself sees that --seed is last and has no value.
set +e
"$CLI" simulate "$TMP/HW.bin" HDRF 4 --trace-out --seed > /dev/null \
    2> "$TMP/err.txt"
rc=$?
set -e
if [ "$rc" -ne 2 ] || ! grep -qxF 'error: --seed requires a value' \
    "$TMP/err.txt"; then
  echo "FAIL: trailing --seed after --trace-out exited $rc, want 2" >&2
  exit 1
fi

# A numeric flag value that fails its parse exits 2 with one exact line per
# kind: positive or non-negative, integer or number, with its upper bound
# unless the flag has none.
expect_flag_error() {
  want="$1"
  shift
  set +e
  "$CLI" "$@" > /dev/null 2> "$TMP/err.txt"
  rc=$?
  set -e
  if [ "$rc" -ne 2 ] || ! grep -qxF "$want" "$TMP/err.txt"; then
    echo "FAIL: $* exited $rc, want 2 and: $want" >&2
    exit 1
  fi
}
expect_flag_error \
  "error: invalid --rack-size value '0' (expected a positive integer <= 64)" \
  simulate "$TMP/HW.bin" HDRF 4 --rack-size 0
expect_flag_error \
  "error: invalid --seed value 'x' (expected a positive integer)" \
  simulate "$TMP/HW.bin" HDRF 4 --seed x
expect_flag_error \
  "error: invalid --growth-batches value '-1' (expected a non-negative integer <= 4096)" \
  dyn-run "$TMP/HW.bin" vLDG 4 --growth-batches -1
expect_flag_error \
  "error: invalid --arrival-rate value '0' (expected a positive number <= 1e+09)" \
  serve-run "$TMP/HW.bin" vLDG 4 --arrival-rate 0
expect_flag_error \
  "error: invalid --rf-threshold value '-0' (expected a non-negative number <= 10000)" \
  dyn-run "$TMP/HW.bin" vLDG 4 --rf-threshold -0

echo OK
