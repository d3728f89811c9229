#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run configures and builds the
engine libraries, dmint_node and perfbench_driver from source into
.bench_build/perfbench (about a minute on 4 cores); later runs rebuild only
what changed. perfbench_driver's output is passed through; its last line is
one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones named in BENCHMARK.json, with
--trace 1 the per-layer ones. See perfbench/METRICS.md.

Exits non-zero, without a result line, when the build fails (for example
when the repository sources are missing), when perfbench_driver fails, when
any answer was wrong, or when the metric names do not match BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("serve", "version-cycle", "replicated")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log_path):
    with open(log_path, "w") as log:
        return subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_DIR, "build.log")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR], log) != 0:
            fail("cmake configure failed; see " + log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged(["cmake", "--build", BUILD_DIR, "--target",
                   "perfbench_driver", "-j", jobs], log) != 0:
        fail("build failed; see " + log)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_driver(args):
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        span_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(span_dir, exist_ok=True)
        cmd += ["--span-dir", span_dir]
    # Own process group, so a timeout also stops the dmint_node children.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        fail("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        stop_group(proc.pid)  # A crashed driver may leave nodes behind.
    return proc.returncode, out


def stop_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small data and rates (smoke tests)")
    args = parser.parse_args()

    build()
    rc, out = run_driver(args)
    lines = out.rstrip("\n").split("\n") if out else []
    for line in lines[:-1]:
        print(line)
    if rc != 0 or not lines:
        fail("driver exited with code %d" % rc)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("driver printed no result line")
    expected = expected_metrics(args.trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            fail("metrics differ from BENCHMARK.json: %s"
                 % sorted(set(got.items()) ^ set(expected.items())))
    if not result["correct"]:
        fail("the system gave wrong answers")
    print(lines[-1])
    sys.stdout.flush()


if __name__ == "__main__":
    main()
