#!/usr/bin/env python3
"""Steadiness check: run every workload k times and summarise each metric.

    python3 perfbench/steady.py [-k 10] [--workload NAME ...] [--trace 0|1]

Run from the root of a checkout. Each run uses its own seed (first seed
--first-seed, default 1) and the run length from BENCHMARK.json. For every
workload and metric it prints the median, the quartiles (as Python's
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) as a
share of the median, and the largest deviation from the median as a share
of it. An end-to-end metric other than setup_s whose spread exceeds a third
of its bound in BENCHMARK.json is marked "NOISY"; the exit code is 1 when
any is, or when any run fails or reports an incorrect or failed op.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, done.returncode))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", type=int, default=10, help="runs per workload")
    parser.add_argument("--workload", action="append",
                        help="workload to run (default: all)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    ok = True
    for workload in workloads:
        values = {}
        failed_shares = set()
        for i in range(args.k):
            seed = args.first_seed + i
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            ok = ok and result["correct"] and result["failed"] == 0
            failed_shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("# %s seed %d: attempted %d failed %d correct %s %s" %
                  (workload, seed, result["attempted"], result["failed"],
                   result["correct"],
                   " ".join("%s=%.6g" % (name, metric["value"]) for name,
                            metric in result["metrics"].items())),
                  flush=True)
        print("%s (k=%d, failed share %s)" %
              (workload, args.k, sorted(failed_shares)))
        print("  %-28s %14s %14s %14s %8s %8s" %
              ("metric", "median", "q1", "q3", "spread", "max_dev"))
        for name, series in values.items():
            mid = statistics.median(series)
            if len(series) >= 2:
                q1, _, q3 = statistics.quantiles(series, n=4)
            else:
                q1 = q3 = mid
            spread = (q3 - q1) / mid if mid else 0.0
            max_dev = max(abs(v - mid) for v in series) / mid if mid else 0.0
            flag = ""
            if name in bounds and name != "setup_s" and spread > bounds[name] / 3:
                flag = "NOISY (bound %.3g)" % bounds[name]
                ok = False
            print("  %-28s %14.6g %14.6g %14.6g %7.2f%% %7.2f%% %s" %
                  (name, mid, q1, q3, 100 * spread, 100 * max_dev, flag))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
