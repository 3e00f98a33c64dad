#!/usr/bin/env python3
"""Runs every workload repeatedly and reports how steady each metric is.

    python3 layerbench/steadiness.py --runs 10 [--workloads edge-stream ...]
        [--first-seed 1] [--seconds N] [--out set.json] [--baseline set.json]

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
end-to-end metric of BENCHMARK.json it prints the median, the quartiles
(statistics.quantiles, n=4), the interquartile range and (max - min) as
shares of the median, and the metric's bound. A spread above a third of the
bound is flagged. --out saves the raw values; --baseline compares these
medians with a saved set, which is how two sets of runs of the same code are
checked against the bounds. Run it from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"steadiness: {' '.join(cmd)} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"steadiness: {workload} seed {seed} failed its checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--baseline")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else {}
    values = {}
    for workload in args.workloads:
        values[workload] = {m: [] for m in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            got = run_once(workload, seed, args.seconds)
            for m in bounds:
                values[workload][m].append(got[m])
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{m}={got[m]:.4f}" for m in bounds), flush=True)

    print(f"\n{'workload':18} {'metric':12} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'iqr/med':>8} {'range/med':>9} {'bound':>6} "
          f"{'vs base':>8}")
    for workload, metrics in values.items():
        for m, v in metrics.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            iqr, rng = (q3 - q1) / med, (max(v) - min(v)) / med
            shift = ""
            if workload in baseline:
                base = statistics.median(baseline[workload][m])
                shift = f"{(med - base) / base:+8.3f}"
            flag = "" if iqr < bounds[m] / 3 else "  <- above bound/3"
            print(f"{workload:18} {m:12} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{iqr:8.3f} {rng:9.3f} {bounds[m]:6.2f} {shift:>8}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1))


if __name__ == "__main__":
    main()
