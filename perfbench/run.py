#!/usr/bin/env python3
"""Build smi-lab and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload mpi-tables --seconds S [--seed N] [--trace 0|1]

Builds `smi-lab` (the `cli` package) and the `perfbench` package in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), runs the
workload, and prints the benchmark's JSON result as the last line of
standard output. Build and progress output goes to standard error. Exits
non-zero without printing a result when a build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mpi-tables", "node-studies", "store-churn"]


def build(target, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=20160816)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    if not (build(target, os.path.join(ROOT, "Cargo.toml"), "-p", "cli")
            and build(target, os.path.join(HERE, "Cargo.toml"))):
        print("run.py: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--smi-lab", os.path.join(target, "release", "smi-lab"),
           "--work", os.path.join(ROOT, ".perfbench-work")]
    # A run measures for --seconds and then finishes the round in flight
    # and its checks; a traced run adds a traced round, a jobs-1 round
    # and the replays.
    timeout_s = 60 + 2 * args.seconds
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"run.py: {args.workload} did not finish in {timeout_s} s", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: benchmark exited {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
