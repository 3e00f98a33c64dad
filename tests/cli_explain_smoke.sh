#!/bin/sh
# Tier-1 smoke for the explain attribution path (ISSUE 9 acceptance):
#   * `gnnpart_cli explain` on an oversubscribed fat tree attributes the
#     epoch to compute / wait / congestion / migration and names an uplink
#     as the top contended link;
#   * `--events-out` writes a schema-versioned JSONL timeline that is
#     byte-identical for --threads 1/2/8 (simulate and dyn-run);
#   * `--baseline` renders the delta columns;
#   * bad arguments exit 2 without touching the filesystem.
# Usage: cli_explain_smoke.sh <path-to-gnnpart_cli>
set -eu

CLI="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$CLI" generate OR 0.02 "$TMP/g.txt" 7 > /dev/null

# Attribution on a 4x-oversubscribed fat tree: all four component rows,
# a bit-exact total, and an uplink leading the contended-link table.
"$CLI" explain "$TMP/g.txt" HDRF 8 \
    --topology fat-tree --oversubscription 4 --rack-size 2 \
    --events-out "$TMP/ft.jsonl" > "$TMP/explain.txt"
for row in compute wait congestion migration total; do
  grep -q "^| $row" "$TMP/explain.txt"
done
grep -q 'uplink' "$TMP/explain.txt"
grep -q 'straggler ranking' "$TMP/explain.txt"
head -1 "$TMP/ft.jsonl" | grep -q '"schema":"gnnpart.events"'
grep -q '"type":"flow"' "$TMP/ft.jsonl"
grep -q '"type":"sample"' "$TMP/ft.jsonl"

# The event stream must not depend on the thread count.
for t in 1 2 8; do
  "$CLI" simulate "$TMP/g.txt" HDRF 8 \
      --topology fat-tree --oversubscription 4 --rack-size 2 \
      --events-out "$TMP/ev$t.jsonl" --threads "$t" > /dev/null
done
cmp -s "$TMP/ev1.jsonl" "$TMP/ev2.jsonl"
cmp -s "$TMP/ev1.jsonl" "$TMP/ev8.jsonl"

# ... including the dynamic driver's run-scoped records.
for t in 1 2 8; do
  "$CLI" dyn-run "$TMP/g.txt" HDRF 8 --growth-batches 3 \
      --repartition-every 2 --events-out "$TMP/dyn$t.jsonl" \
      --threads "$t" > /dev/null
done
cmp -s "$TMP/dyn1.jsonl" "$TMP/dyn2.jsonl"
cmp -s "$TMP/dyn1.jsonl" "$TMP/dyn8.jsonl"
grep -q '"type":"repartition"' "$TMP/dyn1.jsonl"
grep -q '"type":"migration"' "$TMP/dyn1.jsonl"

# Replaying the dynamic run's log attributes a non-zero migration share.
"$CLI" explain "$TMP/dyn1.jsonl" > "$TMP/dyn_explain.txt"
grep '^| migration' "$TMP/dyn_explain.txt" | grep -qv '| 0.000 '

# `explain <events.jsonl>` replays the saved fat-tree run without a
# simulation: every table row must match the in-process report exactly.
"$CLI" explain "$TMP/ft.jsonl" > "$TMP/replay.txt"
grep '^|' "$TMP/explain.txt" > "$TMP/explain_tables.txt"
grep '^|' "$TMP/replay.txt" > "$TMP/replay_tables.txt"
cmp -s "$TMP/explain_tables.txt" "$TMP/replay_tables.txt"

# ... and the same for a mini-batch (DistDGL) run on a contended ring.
"$CLI" explain "$TMP/g.txt" Metis 4 --topology ring \
    --events-out "$TMP/dgl.jsonl" > "$TMP/dgl_explain.txt"
"$CLI" explain "$TMP/dgl.jsonl" > "$TMP/dgl_replay.txt"
grep '^|' "$TMP/dgl_explain.txt" > "$TMP/dgl_explain_tables.txt"
grep '^|' "$TMP/dgl_replay.txt" > "$TMP/dgl_replay_tables.txt"
grep -q 'sampling ms' "$TMP/dgl_explain_tables.txt"
cmp -s "$TMP/dgl_explain_tables.txt" "$TMP/dgl_replay_tables.txt"

# Baseline diff: the full-bisection run as baseline adds delta columns.
"$CLI" explain "$TMP/g.txt" HDRF 8 --events-out "$TMP/fb.jsonl" > /dev/null
"$CLI" explain "$TMP/g.txt" HDRF 8 \
    --topology fat-tree --oversubscription 4 --rack-size 2 \
    --baseline "$TMP/fb.jsonl" --top 3 > "$TMP/diff.txt"
grep -q 'baseline ms' "$TMP/diff.txt"
grep -q 'delta ms' "$TMP/diff.txt"

# Bad arguments exit 2 (the usage contract), not 0 and not a crash code.
for bad in \
    "explain" \
    "explain $TMP/g.txt HDRF" \
    "explain $TMP/g.txt HDRF 8 --not-a-flag 1" \
    "explain $TMP/g.txt HDRF 8 --baseline" \
    "simulate $TMP/g.txt HDRF 8 --baseline x"; do
  set +e
  # shellcheck disable=SC2086
  "$CLI" $bad > /dev/null 2> /dev/null
  rc=$?
  set -e
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: '$bad' exited $rc, want 2" >&2
    exit 1
  fi
done

echo PASS
