#!/usr/bin/env python3
"""Builds the benchmark program from the checkout's sources and runs one
workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch_smp --seed 1 --seconds 55 --trace 0

The first call configures and builds a Release tree in .bench_build (the
cem library plus the benchmark program); later calls only rebuild what
changed. Build output goes to stderr, so the program's result stays the
last line of stdout. Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ("batch_smp", "stream_serve")


def run(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    # The Makefile exists only once a configure step has succeeded.
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        if not run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return run(["cmake", "--build", BUILD_DIR, "-j", "4", "--target", "perfbench"])


def commit():
    # Only a checkout that is itself a git work tree names its commit.
    if not os.path.exists(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        sys.exit("run.py: start it from the root of a checkout")
    if not build():
        sys.exit("run.py: building the benchmark failed")
    program = os.path.join(BUILD_DIR, "perfbench")
    result = subprocess.run([
        program, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", os.path.join(BUILD_DIR, "perfbench-work"),
        "--commit", commit()])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
