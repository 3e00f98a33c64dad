#!/bin/sh
# Tier-1 smoke for the CLI trace path: generate a small graph, simulate
# with --trace-out (JSON and CSV), and render explain's straggler-blame and
# critical-path tables.
# Usage: cli_trace_smoke.sh <path-to-gnnpart_cli>
set -eu

CLI="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$CLI" generate OR 0.02 "$TMP/g.txt" 7 > /dev/null

# Chrome trace JSON from the full-batch (edge-partitioned) simulator.
"$CLI" simulate "$TMP/g.txt" HDRF 8 --trace-out "$TMP/t.json" > /dev/null
grep -q '"traceEvents"' "$TMP/t.json"
grep -q '"ph":"X"' "$TMP/t.json"
grep -q '"distgnn simulated epoch"' "$TMP/t.json"

# Flat CSV from the mini-batch (vertex-partitioned) simulator.
"$CLI" simulate "$TMP/g.txt" Metis 4 --trace-out "$TMP/t.csv" > /dev/null
head -1 "$TMP/t.csv" | grep -q '^step,worker,phase,t_begin,t_end,seconds,comm_seconds,bytes$'
grep -q ',sampling,' "$TMP/t.csv"

# explain prints the per-phase straggler-blame and critical-path tables.
"$CLI" explain "$TMP/g.txt" HDRF 8 > "$TMP/report.txt"
grep -q 'straggler ranking' "$TMP/report.txt"
grep -q 'fwd_sync ms' "$TMP/report.txt"
grep -q 'critical path' "$TMP/report.txt"
grep -q 'most expensive steps' "$TMP/report.txt"

# Garbage flag values must fail loudly, not default silently.
if "$CLI" simulate "$TMP/g.txt" HDRF 8 --layers banana 2> /dev/null; then
  echo "FAIL: --layers banana was accepted" >&2
  exit 1
fi

echo OK
