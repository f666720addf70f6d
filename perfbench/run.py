#!/usr/bin/env python3
"""Build and run the steady-state collective benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the gencoll libraries from ./src and
the benchmark binary into $CARGO_TARGET_DIR (default .bench_build) with
CMake, runs one workload, and forwards the binary's output: context lines,
a metric table, and as the last line one JSON object with the keys
correct, attempted, failed and metrics. --trace 1 also writes the span log
to <build dir>/traces/<workload>-seed<N>.json. Exits nonzero when the build
fails, a checked output is wrong, or the run does not finish in time.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "--target", "perfbench_bin", "-j", jobs],
    ]
    for cmd in steps:
        if os.path.exists(os.path.join(out_dir, "CMakeCache.txt")) and cmd[1] == "-S":
            continue  # configured already; the build step re-runs CMake if needed
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    out_dir = build_dir()
    try:
        if not build(out_dir):
            print("perfbench: build failed", file=sys.stderr)
            return 2
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [os.path.join(out_dir, "perfbench_bin"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(os.path.dirname(out_dir), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        print("perfbench: no result line", file=sys.stderr)
        return proc.returncode or 4
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
