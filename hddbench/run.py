#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

Usage (from the repository root):

    python3 hddbench/run.py --workload cross_read --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/hddbench (default .bench_build/hddbench)
and is reused by later runs. Build output goes to standard error, so the
last line of standard output is the result JSON printed by the benchmark.
See hddbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cross_read", "durable_write")
# A run measures `--seconds` twice at most (plain and traced phases) plus
# set-up, warm-up and the correctness checks; this is the hard cap.
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "hddbench", "-j",
         str(min(4, os.cpu_count() or 1))],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "hdd", "hdd_controller.h")):
        print("hddbench: library sources not found under " + ROOT,
              file=sys.stderr)
        return 2
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(build_root, "hddbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print("hddbench: build failed: %s" % error, file=sys.stderr)
        return 2

    command = [os.path.join(build_dir, "hddbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(build_root, "hddbench-out")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("hddbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
