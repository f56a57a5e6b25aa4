#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The harness is built with CMake into
.bench_build/perfbench (the first run builds, later runs reuse the build),
and everything the run writes stays under .bench_build. The last line of
standard output is the harness's JSON result; build output goes to
standard error. Exits non-zero without a result when the build or the run
fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
STATE_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(STATE_DIR, "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    env = {k: v for k, v in os.environ.items() if not k.startswith("ANACIN_")}
    # Worker children keep their stderr in unlinked temp files.
    env["TMPDIR"] = os.path.join(STATE_DIR, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    command = [
        HARNESS,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(STATE_DIR, "work", tag),
        "--out-dir", os.path.join(STATE_DIR, "out"),
    ]
    try:
        code = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
