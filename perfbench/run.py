#!/usr/bin/env python3
"""Benchmark entry point: builds the simulator and the benchmark driver from
source, then runs one workload in its own process.

    python3 perfbench/run.py --workload full_mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of the repository. The build lives in .bench_build/ and is
reused by later runs. The last line of standard output is the JSON result of
perfbench_driver; build output goes to standard error. See
perfbench/README.md.
"""

import argparse
import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("full_mix", "sampled_npb", "serve_local", "serve_worker")
# A run measures for --seconds, then spends a few seconds on checks; the
# traced run also replays memory streams and, off the default seed,
# simulates the full-fidelity reference of the sampled jobs.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources at src/ (run from a "
                 "checkout of the repository)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                        str(os.cpu_count() or 2)],
                       stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed: {e}")

    if args.self_test:
        cmd = [os.path.join(BUILD_DIR, "perfbench_selftest")]
    else:
        cmd = [os.path.join(BUILD_DIR, "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
