#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

Runs each workload at tiny size (untraced and traced) through run.py and
checks the result line: correctness, metric names and units against
BENCHMARK.json, and that the traced run emits every per-layer name of the
reference (METRICS.md). Also checks the format of BENCHMARK.json and
that run.py fails cleanly in a directory holding only
BENCHMARK.json and perfbench/.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Per-layer names the traced run must emit (METRICS.md, "Per-layer").
LAYER_NAMES = [
    "rpc.send_p50_us", "rpc.frame_bytes_per_op", "rpc.codec_ns_per_frame",
    "server.stack_self_p50_us", "server.busy_rejects",
    "server.write_batch_share",
    "mint.get_self_p50_us", "mint.put_self_p50_us", "mint.read_timeouts",
    "mint.coord.attempts_per_read", "mint.coord.hedges_per_read",
    "mint.coord.hedge_win_share", "mint.coord.failovers_per_read",
    "mint.coord.self_put_p50_us",
    "qindb.get_p50_us", "qindb.get_p99_us", "qindb.put_p50_us",
    "qindb.cache_hit_ratio", "qindb.cache_admission_reject_ratio",
    "qindb.traceback_share", "qindb.commit_ms", "qindb.drop_version_ms",
    "qindb.ingest_us_per_pair", "qindb.gc_invocations",
    "aof.gc_bytes_rewritten_per_user_byte", "aof.segments_reclaimed",
    "ssd.pages_read_per_get", "ssd.device_us_per_get",
    "ssd.pages_written_per_user_kib", "ssd.blocks_erased",
    "ssd.gc_pages_migrated",
    "bifrost.dedup_ratio", "bifrost.dedup_us_per_pair",
    "bifrost.slice_encode_us_per_mib", "bifrost.ship_mib_s",
    "bifrost.slices_resent",
    "gen.lag_p99_us", "trace.overhead_pct",
]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["command"][:2], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertGreater(m["bound"], 0)
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_reference_lists_every_layer_name(self):
        spec = load_spec()
        per_layer = {m["name"] for m in spec["per_layer"]}
        self.assertTrue(set(LAYER_NAMES) <= per_layer,
                        sorted(set(LAYER_NAMES) - per_layer))
        with open(os.path.join(HERE, "METRICS.md")) as f:
            reference = f.read()
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertIn("`%s`" % m["name"], reference)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("serve", 0, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class WorkloadTest(unittest.TestCase):
    def check_run(self, workload, trace):
        spec = load_spec()
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        # Transient answers are retried; no op of any workload may fail.
        self.assertEqual(result["failed"], 0, proc.stdout[-2000:])
        expected = spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        if not trace:
            # Sample counts are printed next to every timing.
            self.assertRegex(proc.stdout, r"metric read_p50_us .* samples=\d+")
        return result

    def test_serve(self):
        self.check_run("serve", 0)

    def test_serve_traced(self):
        self.check_run("serve", 1)

    def test_version_cycle(self):
        self.check_run("version-cycle", 0)

    def test_version_cycle_traced(self):
        result = self.check_run("version-cycle", 1)
        metrics = result["metrics"]
        self.assertGreater(metrics["bifrost.dedup_ratio"]["value"], 0)

    def test_replicated(self):
        self.check_run("replicated", 0)

    def test_replicated_traced(self):
        result = self.check_run("replicated", 1)
        metrics = result["metrics"]
        self.assertGreaterEqual(
            metrics["mint.coord.attempts_per_read"]["value"], 1)


if __name__ == "__main__":
    unittest.main()
