#!/usr/bin/env python3
"""Steadiness tool: runs one workload N times and reports each metric's spread.

    python3 perfbench/steady.py --workload serve --runs 10 --seconds 20

Each run uses another seed (first-seed, first-seed + 1, ...). For every
metric it prints the median, the first and third quartiles (as Python's
statistics.quantiles(values, n=4) gives them), the relative spread
(q3 - q1) / median, the metric's bound from BENCHMARK.json, and whether the
spread stays below a third of that bound, the margin the benchmark is tuned
to. setup_s is exempt from the spread rule (its median is still compared
between sets of runs). Use --trace 1 for the per-layer metrics, which have
no bound. It also prints the failed ops over all runs, which should be 0.
--json writes the raw values too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    """The run's result object and its outcome line (retries, failures)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("run with seed %d failed (exit %d)" % (seed, proc.returncode))
    lines = proc.stdout.strip().split("\n")
    outcome = [line for line in lines if line.startswith("outcome:")]
    return json.loads(lines[-1]), outcome[0] if outcome else ""


def bounds(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if trace or not os.path.isfile(path):
        return {}
    with open(path) as f:
        return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the raw values here")
    args = parser.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2")

    values = {}
    units = {}
    failed = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        result, outcome = run_once(args.workload, seed, args.seconds,
                                   args.trace)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("run %d/%d seed %d: %s" % (i + 1, args.runs, seed, outcome),
              file=sys.stderr)
        failed += result["failed"]

    limits = bounds(args.trace)
    print("%-38s %-7s %14s %14s %14s %8s %6s %s" % (
        "metric", "unit", "median", "q1", "q3", "spread", "bound", "verdict"))
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = limits.get(name)
        if bound is None:
            verdict = ""
        elif name == "setup_s":
            verdict = "exempt"
        else:
            verdict = "steady" if spread < bound / 3 else "NOISY"
        print("%-38s %-7s %14.6g %14.6g %14.6g %7.2f%% %6s %s" % (
            name, units[name], median, q1, q3, spread * 100,
            "" if bound is None else "%.2f" % bound, verdict))
    # Every workload is meant to fail no op: a failure count that differs
    # between two sets of runs makes them disagree.
    print("failed ops over all runs: %d%s" % (failed, "" if failed == 0
                                              else " (NOT ZERO)"))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "first_seed": args.first_seed, "values": values}, f,
                      indent=1)


if __name__ == "__main__":
    main()
