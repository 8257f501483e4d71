#!/usr/bin/env python3
"""Builds and runs the CostSense benchmark (see BENCHMARK.json).

    python3 costbench/run.py --workload figures-cold --seed 1 \
        --seconds 30 --trace 0

Configures and builds costbench/ (the library sources plus the costbench
binary) under .bench_build/ at the repository root, runs one workload, and
prints the costbench binary's JSON result as the last line of stdout.
Build output and diagnostics go to stderr. Exits nonzero, without printing
a result, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "costbench")
BINARY = os.path.join(BUILD, "costbench")
WORKLOADS = ("figures-cold", "serve-warm", "serve-fresh")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; output to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        print("costbench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("costbench: run timed out", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if not lines:
        print("costbench: no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result.get("correct"):
        print("costbench: run failed (exit %d): %s" % (done.returncode,
                                                       lines[-1]),
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
