#!/bin/sh
# Tier-1 smoke for the gnnpart::serve CLI surface: `serve-run` must be
# byte-identical across thread counts and repeated runs (stdout and the
# event JSONL, DESIGN.md §15's determinism contract), both partitioner
# modes and the co-tenant fabric must work, --batch-wait 0 is a legal
# boundary, --nic-gbps reaches the serving timetable, and malformed serve
# flags must exit loudly with usage.
# Usage: cli_serve_smoke.sh <path-to-gnnpart_cli>
set -eu

CLI="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$CLI" generate EN 0.04 "$TMP/g.bin" 7 > /dev/null

# Determinism: a co-tenanted serving run with events, in both modes
# (HDRF -> derived ownership over the vertex cut, vFennel -> native
# edge cut), at 1/2/8 threads and across repeated same-seed runs, must
# be byte-identical in stdout and in the event file.
for part in HDRF vFennel; do
  "$CLI" serve-run "$TMP/g.bin" "$part" 4 --arrival-rate 600 \
    --duration 0.25 --cotenant --events-out "$TMP/ev.jsonl" \
    --threads 1 > "$TMP/serve1.txt"
  cp "$TMP/ev.jsonl" "$TMP/ev1.jsonl"
  for t in 2 8; do
    "$CLI" serve-run "$TMP/g.bin" "$part" 4 --arrival-rate 600 \
      --duration 0.25 --cotenant --events-out "$TMP/ev.jsonl" \
      --threads "$t" > "$TMP/servet.txt"
    cmp -s "$TMP/serve1.txt" "$TMP/servet.txt" || {
      echo "FAIL: serve-run $part stdout differs at --threads $t" >&2
      exit 1
    }
    cmp -s "$TMP/ev1.jsonl" "$TMP/ev.jsonl" || {
      echo "FAIL: serve-run $part events differ at --threads $t" >&2
      exit 1
    }
  done
  grep -q 'latency ms: p50' "$TMP/serve1.txt"
  grep -q 'breakdown s: queue' "$TMP/serve1.txt"
  grep -q 'co-tenant' "$TMP/serve1.txt"
done

# The serve event epoch feeds the attribution engine: explain renders the
# queueing sub-row from the file just written.
"$CLI" explain "$TMP/ev1.jsonl" > "$TMP/explain.txt"
grep -q 'queueing' "$TMP/explain.txt"

# Boundary contracts: --batch-wait 0 (dispatch on arrival) and
# --batch-size 1 (every request alone) are legal, as is a solo run
# without co-tenancy at unit weight — the flowsim's pinned fast path.
"$CLI" serve-run "$TMP/g.bin" HDRF 4 --batch-wait 0 > "$TMP/w0.txt"
grep -q 'latency ms' "$TMP/w0.txt"
"$CLI" serve-run "$TMP/g.bin" HDRF 4 --batch-size 1 > "$TMP/b1.txt"
grep -q 'latency ms' "$TMP/b1.txt"
"$CLI" serve-run "$TMP/g.bin" HDRF 4 --serve-weight 1 > "$TMP/u.txt"
grep -q 'latency ms' "$TMP/u.txt"

# The serving knobs matter: a higher arrival rate serves more requests.
low="$(sed -n 's/^.*: \([0-9]*\) requests.*/\1/p' "$TMP/u.txt")"
"$CLI" serve-run "$TMP/g.bin" HDRF 4 --arrival-rate 800 > "$TMP/hi.txt"
high="$(sed -n 's/^.*: \([0-9]*\) requests.*/\1/p' "$TMP/hi.txt")"
if [ "$high" -le "$low" ]; then
  echo "FAIL: --arrival-rate 800 served $high <= $low requests" >&2
  exit 1
fi

# The timetable is priced at the fabric's NIC: --nic-gbps 10 changes the
# network share of the breakdown.
"$CLI" serve-run "$TMP/g.bin" HDRF 4 > "$TMP/default.txt"
"$CLI" serve-run "$TMP/g.bin" HDRF 4 --nic-gbps 10 > "$TMP/nic10.txt"
net_default="$(sed -n 's/^breakdown s:.* network \([^ ]*\) .*/\1/p' "$TMP/default.txt")"
net_fast="$(sed -n 's/^breakdown s:.* network \([^ ]*\) .*/\1/p' "$TMP/nic10.txt")"
if [ -z "$net_fast" ] || [ "$net_fast" = "$net_default" ]; then
  echo "FAIL: --nic-gbps 10 left the network time at '$net_default'" >&2
  exit 1
fi

# Malformed serve flags must exit 2 with the usage text, not default
# silently. Zero/negative rates, weights and batch sizes are garbage;
# missing flag values are too.
for bad in "--arrival-rate x" "--arrival-rate -1" "--arrival-rate 0" \
           "--duration 0" "--serve-weight 0" "--serve-weight -2" \
           "--batch-size 0" "--batch-size banana" "--batch-wait -0.5" \
           "--batch-wait nan" "--arrival-rate" "--batch-wait"; do
  # shellcheck disable=SC2086
  set +e
  "$CLI" serve-run "$TMP/g.bin" HDRF 4 $bad > /dev/null 2> "$TMP/err.txt"
  rc=$?
  set -e
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: '$bad' exited $rc, expected 2" >&2
    exit 1
  fi
  grep -qi 'usage\|invalid\|requires' "$TMP/err.txt" || {
    echo "FAIL: '$bad' exited 2 without a diagnostic" >&2
    exit 1
  }
done

echo OK
