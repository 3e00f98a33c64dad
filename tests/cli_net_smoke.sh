#!/bin/sh
# Tier-1 smoke for the gnnpart::net CLI surface: `explain` must be
# byte-identical across thread counts and across runs, the default fabric
# must be indistinguishable from spelling the legacy flags out (the
# bit-exactness contract of DESIGN.md §10), every topology must render its
# link and worker tables, and malformed network flags must exit loudly.
# Usage: cli_net_smoke.sh <path-to-gnnpart_cli>
set -eu

CLI="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$CLI" generate OR 0.02 "$TMP/g.txt" 7 > /dev/null

# Determinism: explain on a contended ring at 1/2/8 threads and a repeated
# same-seed run must be byte-identical.
"$CLI" explain "$TMP/g.txt" Metis 4 --topology ring --threads 1 \
  > "$TMP/nr1.txt"
for t in 2 8; do
  "$CLI" explain "$TMP/g.txt" Metis 4 --topology ring --threads "$t" \
    > "$TMP/nrt.txt"
  cmp -s "$TMP/nr1.txt" "$TMP/nrt.txt" || {
    echo "FAIL: explain differs between --threads 1 and --threads $t" >&2
    exit 1
  }
done
"$CLI" explain "$TMP/g.txt" Metis 4 --topology ring --threads 1 \
  > "$TMP/nr_again.txt"
cmp -s "$TMP/nr1.txt" "$TMP/nr_again.txt" || {
  echo "FAIL: explain differs between identical runs" >&2
  exit 1
}
grep -q '^overlap: bsp ' "$TMP/nr1.txt"

# Defaults are the legacy fabric: spelling them out must change nothing.
"$CLI" simulate "$TMP/g.txt" HDRF 8 > "$TMP/sim_default.txt"
"$CLI" simulate "$TMP/g.txt" HDRF 8 --topology full-bisection \
  --oversubscription 1 --nic-gbps 1 > "$TMP/sim_explicit.txt"
cmp -s "$TMP/sim_default.txt" "$TMP/sim_explicit.txt" || {
  echo "FAIL: explicit default network flags changed simulate output" >&2
  exit 1
}

# Every topology renders the link table and the pipelined worker blame, on
# both simulators (HDRF -> DistGNN full-batch, Metis -> DistDGL mini-batch).
# --top 64 lists every link of these fabrics.
for topo in full-bisection fat-tree ring; do
  "$CLI" explain "$TMP/g.txt" HDRF 8 --topology "$topo" \
    --oversubscription 4 --rack-size 4 --top 64 > "$TMP/nr_$topo.txt"
  grep -q "topology=$topo" "$TMP/nr_$topo.txt"
  grep -q 'util %' "$TMP/nr_$topo.txt"
  grep -q 'pipelined blame ms' "$TMP/nr_$topo.txt"
  grep -q '^overlap: bsp ' "$TMP/nr_$topo.txt"
done
grep -q 'uplink0' "$TMP/nr_fat-tree.txt"
grep -q 'ccw0' "$TMP/nr_ring.txt"
"$CLI" explain "$TMP/g.txt" Metis 4 --topology fat-tree --rack-size 2 \
  --oversubscription 8 --top 64 | grep -q 'uplink1'

# Malformed network flags must exit non-zero, not default silently.
for bad in "--topology mesh" "--nic-gbps banana" \
           "--nic-gbps 0" "--oversubscription 0" "--oversubscription 65" \
           "--rack-size -2" "--topology" "--nic-gbps"; do
  # shellcheck disable=SC2086
  if "$CLI" simulate "$TMP/g.txt" HDRF 8 $bad 2> /dev/null; then
    echo "FAIL: '$bad' was accepted" >&2
    exit 1
  fi
done

echo OK
