#!/bin/sh
# Tier-1 smoke for the metrics manifest path:
#   * `gnnpart_cli --metrics-out` writes a schema-versioned JSONL manifest
#     whose det:true rows are byte-identical for --threads 1/2/8, for
#     `simulate` and for a co-tenanted `serve-run`;
#   * the CLI's wall timers (time/simulate, time/serve) are det:false rows
#     and the flow engine's work counters are published;
#   * the multilevel engine's refine_scanned work counter is a det row of
#     `partition … Metis 4`, byte-identical for --threads 1/8;
#   * `partition … HEP10 4` records its load, partition and metrics wall
#     times (time/load, time/partition, time/metrics) as det:false rows and
#     the reader's io/edges_parsed as a det row;
#   * `info` records time/load and time/info;
#   * `explain <events file>` records time/load (read plus validation) and
#     time/explain;
#   * `check` records time/check and `dyn-run` records time/dyn plus its
#     stream, prefix, partition and simulate rows;
#   * `generate … --metrics-out` records time/generate and time/write;
#   * `gnnpart_cli metrics` pretty-prints (and strictly re-parses) it;
#   * tools/bench_compare.py exits 0 on identical manifests and non-zero
#     on an injected 2x regression;
#   * a manifest holding a subset of another's rows passes as the baseline
#     side (CI's table-isolation compare), fails on one changed det value,
#     and fails with MISSING when the sides are the other way round.
# Usage: cli_metrics_smoke.sh <path-to-gnnpart_cli> <path-to-bench_compare.py>
set -eu

CLI="$1"
COMPARE="$2"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$CLI" --metrics-out "$TMP/gen.jsonl" generate OR 0.02 "$TMP/g.txt" 7 \
    > /dev/null 2> /dev/null
grep -q '"name":"time/generate".*"det":false' "$TMP/gen.jsonl"
grep -q '"name":"time/write".*"det":false' "$TMP/gen.jsonl"

# Manifest written by the global flag (before the subcommand, as documented).
for t in 1 2 8; do
  "$CLI" --metrics-out "$TMP/m$t.jsonl" --threads "$t" \
      simulate "$TMP/g.txt" HDRF 8 > /dev/null 2> /dev/null
done
head -1 "$TMP/m1.jsonl" | grep -q '"type":"meta"'
head -1 "$TMP/m1.jsonl" | grep -q '"schema":"gnnpart.metrics"'
head -1 "$TMP/m1.jsonl" | grep -q '"version":1'
grep -q '"name":"partition/edge/HDRF/edges_assigned"' "$TMP/m1.jsonl"

# The deterministic surface must not depend on the thread count.
for t in 1 2 8; do
  grep '"det":true' "$TMP/m$t.jsonl" > "$TMP/det$t"
done
cmp -s "$TMP/det1" "$TMP/det2"
cmp -s "$TMP/det1" "$TMP/det8"

# Timers and RSS are exempt, and must be explicitly marked non-deterministic.
grep -q '"name":"mem/peak_rss_bytes".*"det":false' "$TMP/m1.jsonl"
# The partitioner's and the epoch simulation's wall times are timer rows.
grep -q '"name":"time/partition".*"det":false' "$TMP/m1.jsonl"
grep -q '"name":"time/simulate".*"det":false' "$TMP/m1.jsonl"
# The flow engine's work is counted, deterministically.
grep -q '"name":"net/flowsim/events".*"det":true' "$TMP/m1.jsonl"
grep -q '"name":"net/flowsim/fill_rounds".*"det":true' "$TMP/m1.jsonl"

# partition Metis: the multilevel engine's work counters are det rows that
# do not depend on the threads.
for t in 1 8; do
  "$CLI" --metrics-out "$TMP/p$t.jsonl" --threads "$t" \
      partition "$TMP/g.txt" Metis 4 > /dev/null 2> /dev/null
  grep '"det":true' "$TMP/p$t.jsonl" > "$TMP/pdet$t"
done
grep -q '"name":"partition/vertex/multilevel/refine_scanned"' "$TMP/pdet1"
cmp -s "$TMP/pdet1" "$TMP/pdet8"

# partition HEP10: the CLI splits its wall time into load and partition.
"$CLI" --metrics-out "$TMP/h.jsonl" partition "$TMP/g.txt" HEP10 4 \
    > /dev/null 2> /dev/null
grep -q '"name":"time/load".*"det":false' "$TMP/h.jsonl"
grep -q '"name":"time/partition".*"det":false' "$TMP/h.jsonl"
grep -q '"name":"partition/edge/HEP10/in_memory_edges".*"det":true' \
    "$TMP/h.jsonl"
grep -q '"name":"io/edges_parsed".*"det":true' "$TMP/h.jsonl"
# ... and times its partition-quality metrics apart from both.
grep -q '"name":"time/metrics".*"det":false' "$TMP/h.jsonl"

# info: its degree, component and diameter statistics are one timer.
"$CLI" --metrics-out "$TMP/i.jsonl" info "$TMP/g.txt" > /dev/null 2> /dev/null
grep -q '"name":"time/load".*"det":false' "$TMP/i.jsonl"
grep -q '"name":"time/info".*"det":false' "$TMP/i.jsonl"

# explain from a saved event log: loading (with validation) and the
# attribution tables are one timer each.
"$CLI" simulate "$TMP/g.txt" HDRF 4 --events-out "$TMP/ev.jsonl" \
    > /dev/null 2> /dev/null
"$CLI" --metrics-out "$TMP/e.jsonl" explain "$TMP/ev.jsonl" \
    > /dev/null 2> /dev/null
grep -q '"name":"time/load".*"det":false' "$TMP/e.jsonl"
grep -q '"name":"time/explain".*"det":false' "$TMP/e.jsonl"

# check: its validators (and the partitioner runs they verify) are one
# timer; dyn-run times the dynamic driver.
"$CLI" --metrics-out "$TMP/c.jsonl" check "$TMP/g.txt" HDRF 4 \
    > /dev/null 2> /dev/null
grep -q '"name":"time/load".*"det":false' "$TMP/c.jsonl"
grep -q '"name":"time/check".*"det":false' "$TMP/c.jsonl"
"$CLI" --metrics-out "$TMP/d.jsonl" dyn-run "$TMP/g.txt" HDRF 4 \
    --growth-batches 2 > /dev/null 2> /dev/null
for timer in time/dyn time/dyn/stream time/dyn/prefix time/dyn/partition \
    time/dyn/simulate; do
  grep -q "\"name\":\"$timer\".*\"det\":false" "$TMP/d.jsonl"
done

# serve-run: its wall time is the time/serve timer, and a co-tenanted run's
# det rows (flow engine counters included) do not depend on the threads.
for t in 1 2 8; do
  "$CLI" --metrics-out "$TMP/s$t.jsonl" --threads "$t" \
      serve-run "$TMP/g.txt" vLDG 4 --arrival-rate 600 --duration 0.25 \
      --cotenant > /dev/null 2> /dev/null
  grep '"det":true' "$TMP/s$t.jsonl" > "$TMP/sdet$t"
done
grep -q '"name":"time/serve".*"det":false' "$TMP/s1.jsonl"
grep -q '"name":"net/flowsim/events"' "$TMP/sdet1"
cmp -s "$TMP/sdet1" "$TMP/sdet2"
cmp -s "$TMP/sdet1" "$TMP/sdet8"

# The pretty-printer re-parses strictly and renders a table.
"$CLI" metrics "$TMP/m1.jsonl" > "$TMP/pretty.txt"
grep -q 'partition/edge/HDRF/edges_assigned' "$TMP/pretty.txt"
# A truncated manifest must be rejected with the invariant name.
head -1 "$TMP/m1.jsonl" > "$TMP/broken.jsonl"
printf '{"type":"counter","name":"x"\n' >> "$TMP/broken.jsonl"
if "$CLI" metrics "$TMP/broken.jsonl" 2> "$TMP/err.txt"; then
  echo "FAIL: corrupted manifest was accepted" >&2
  exit 1
fi
grep -q 'manifest/bad-json' "$TMP/err.txt"

# bench_compare: identical manifests pass ...
python3 "$COMPARE" "$TMP/m1.jsonl" "$TMP/m2.jsonl" --det-only > /dev/null

# ... an injected 2x regression on a det counter fails.
sed 's/"name":"partition\/edge\/HDRF\/edges_assigned","unit":"edges","det":true,"value":\([0-9]*\)/"name":"partition\/edge\/HDRF\/edges_assigned","unit":"edges","det":true,"value":\1\1/' \
    "$TMP/m1.jsonl" > "$TMP/regressed.jsonl"
if python3 "$COMPARE" "$TMP/m1.jsonl" "$TMP/regressed.jsonl" --det-only > /dev/null; then
  echo "FAIL: injected regression not flagged" >&2
  exit 1
fi

# bench_compare with a subset manifest on the baseline side: its rows must
# each be present and equal in the current one; extra rows there are notes.
grep -E '"type":"meta"|"name":"partition/' "$TMP/m1.jsonl" > "$TMP/subset.jsonl"
python3 "$COMPARE" "$TMP/subset.jsonl" "$TMP/m1.jsonl" --det-only > /dev/null
sed 's/"name":"partition\/edge\/HDRF\/edges_assigned","unit":"edges","det":true,"value":\([0-9]*\)/&1/' \
    "$TMP/subset.jsonl" > "$TMP/subset_edit.jsonl"
if python3 "$COMPARE" "$TMP/subset_edit.jsonl" "$TMP/m1.jsonl" --det-only \
    > "$TMP/subset_edit.txt"; then
  echo "FAIL: changed det value in the subset not flagged" >&2
  exit 1
fi
grep -q 'VALUE *partition/edge/HDRF/edges_assigned' "$TMP/subset_edit.txt"
if python3 "$COMPARE" "$TMP/m1.jsonl" "$TMP/subset.jsonl" --det-only \
    > "$TMP/reverse.txt"; then
  echo "FAIL: rows missing from the subset not flagged" >&2
  exit 1
fi
grep -q '^  MISSING ' "$TMP/reverse.txt"

echo OK
