#!/usr/bin/env python3
"""Builds the layer benchmark from source and runs one workload.

    python3 layerbench/run.py --workload edge-stream --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout. The first call configures and builds
the driver (CMake, Release) under .bench_build/layerbench, or under
$CARGO_TARGET_DIR/layerbench when that is set; later calls only re-check the
build. Inputs are generated from --seed into .bench_work/inputs and reused.
Build and generation output goes to stderr; stdout carries the driver's
report, whose last line is the JSON result. See layerbench/NOTES.md.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("edge-stream", "vertex-minibatch", "serve-contended")
KEEP_INPUTS = 12  # generated input files kept in .bench_work/inputs


def run_quiet(cmd):
    """Runs a build or generation step with its output on stderr."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"layerbench: {' '.join(map(str, cmd))} failed "
                 f"({done.returncode})")


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "layerbench"
    if not (build_dir / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs])
    return build_dir / "layerbench_driver"


def prune_inputs(inputs, keep):
    """Drops the least recently used inputs beyond `keep` files."""
    if not inputs.is_dir():
        return
    files = sorted((p for p in inputs.iterdir() if p.is_file()),
                   key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in files[keep:]:
        stale.unlink()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    driver = build()
    work = ROOT / ".bench_work"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", str(work)]
    run_quiet([driver, "generate", *common])
    prune_inputs(work / "inputs", KEEP_INPUTS)

    done = subprocess.run(
        [driver, "run", *common, "--seconds", str(args.seconds),
         "--trace", str(args.trace),
         "--references", str(HERE / "references.txt")],
        stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.exit(f"layerbench: driver failed ({done.returncode})")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
