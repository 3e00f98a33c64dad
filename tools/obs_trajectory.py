#!/usr/bin/env python3
"""Aggregate gnnpart run manifests into a trajectory table.

Usage:
    tools/obs_trajectory.py [--out docs/TRAJECTORY.md] [PATH ...]

Each PATH is a JSONL run manifest (schema "gnnpart.metrics", written by
--metrics-out / GNNPART_METRICS_OUT) or a directory scanned for
BENCH_*.json / *.jsonl manifests. With no PATH, scans bench/baselines/.

The output is a markdown document with one row per manifest: the tool and
run parameters from the meta line, row counts by kind, the size of the
deterministic surface, and a few headline metrics (epochs simulated,
network bytes, flow-engine events, total timer seconds). CI regenerates it from the checked-in
baselines plus the freshly produced manifests, so the committed copy is
the trajectory of the repository's own benchmark surface over time.

Exit status: 0 = written, 2 = bad input.
"""

import argparse
import json
import os
import sys


def load_manifest(path):
    """Parses a JSONL manifest into (meta, [rows]). Exits 2 on bad input."""
    rows = []
    meta = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as err:
                    sys.exit(f"error: {path}:{lineno}: bad JSON: {err}")
                if meta is None:
                    if obj.get("type") != "meta":
                        sys.exit(f"error: {path}: first line is not a meta record")
                    if obj.get("schema") != "gnnpart.metrics":
                        sys.exit(f"error: {path}: unknown schema "
                                 f"{obj.get('schema')!r}")
                    meta = obj
                    continue
                rows.append(obj)
    except OSError as err:
        sys.exit(f"error: cannot read {path}: {err}")
    if meta is None:
        sys.exit(f"error: {path}: empty manifest")
    return meta, rows


def collect_paths(args_paths):
    paths = []
    for p in args_paths or ["bench/baselines"]:
        if os.path.isdir(p):
            for name in sorted(os.listdir(p)):
                if (name.startswith("BENCH_") and name.endswith(".json")) or \
                        name.endswith(".jsonl"):
                    paths.append(os.path.join(p, name))
        else:
            paths.append(p)
    return paths


def fmt_count(n):
    if n >= 10_000_000:
        return f"{n / 1e6:.0f}M"
    if n >= 10_000:
        return f"{n / 1e3:.0f}k"
    return str(n)


def summarize(path):
    meta, rows = load_manifest(path)
    kinds = {}
    det_rows = 0
    epochs = 0
    net_bytes = 0
    flow_events = None  # blank cell for manifests without the row
    timer_seconds = 0.0
    for row in rows:
        kinds[row.get("type", "?")] = kinds.get(row.get("type", "?"), 0) + 1
        if row.get("det", True):
            det_rows += 1
        name = row.get("name", "")
        if name.endswith("/epochs_simulated"):
            epochs += int(row.get("value", 0))
        elif name.endswith("/network_bytes"):
            net_bytes += int(row.get("value", 0))
        elif name == "net/flowsim/events":
            flow_events = int(row.get("value", 0))
        if row.get("type") == "timer":
            timer_seconds += float(row.get("seconds", 0.0))
    kinds_text = " ".join(
        f"{k}:{kinds[k]}" for k in ("counter", "gauge", "histogram", "timer")
        if k in kinds)
    params = " ".join(
        f"{k}={meta[k]}" for k in ("scale", "seed", "threads") if k in meta)
    return {
        "file": os.path.basename(path),
        "tool": meta.get("tool", "?"),
        "params": params or "-",
        "rows": len(rows),
        "det": det_rows,
        "kinds": kinds_text or "-",
        "epochs": fmt_count(epochs) if epochs else "-",
        "net_mb": f"{net_bytes / 1e6:.1f}" if net_bytes else "-",
        "flow_events": "" if flow_events is None else fmt_count(flow_events),
        "timer_s": f"{timer_seconds:.3f}" if timer_seconds else "-",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="manifests or directories (default: "
                             "bench/baselines)")
    parser.add_argument("--out", default="docs/TRAJECTORY.md",
                        help="markdown file to write (default: "
                             "docs/TRAJECTORY.md)")
    args = parser.parse_args()

    paths = collect_paths(args.paths)
    if not paths:
        sys.exit("error: no manifests found")
    summaries = [summarize(p) for p in paths]

    lines = [
        "# Benchmark trajectory",
        "",
        "Aggregated view of the run manifests the repository tracks — the",
        "checked-in `bench/baselines/BENCH_*.json` plus any manifest CI",
        "produced for the current revision. Regenerate with:",
        "",
        "```sh",
        "python3 tools/obs_trajectory.py",
        "```",
        "",
        "`det rows` is the size of the deterministic surface (rows that are",
        "bit-identical for any `--threads N`); `timer s` sums the wall-clock",
        "timers and is machine-dependent, shown for scale only. `flow events`",
        "is `net/flowsim/events`, the flow engine's event count (its work);",
        "it is blank for manifests written before the engine counted it.",
        "",
        "| manifest | tool | run | rows | det rows | kinds | epochs "
        "| net MB | flow events | timer s |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for s in summaries:
        lines.append(
            f"| {s['file']} | {s['tool']} | {s['params']} | {s['rows']} "
            f"| {s['det']} | {s['kinds']} | {s['epochs']} | {s['net_mb']} "
            f"| {s['flow_events']} | {s['timer_s']} |")
    lines.append("")

    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    print(f"wrote {args.out} ({len(summaries)} manifest(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
