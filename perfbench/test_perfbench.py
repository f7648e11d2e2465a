#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Runs each workload in short mode (--quick: a few ops, one setup) and
checks that
  * an untraced run emits exactly the end-to-end metrics BENCHMARK.json
    names, each with its unit, with every answer correct;
  * a traced run emits exactly the per-layer metrics, each with its unit;
  * a deliberately wrong reference answer is counted as a failed op.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-campaign", "daemon-mixed", "cli-snapshot")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--quick", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=600)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end_metrics_and_answers(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = run(w, 0)
                self.assertEqual(set(r), {"correct", "attempted", "failed",
                                          "metrics"})
                self.assertTrue(r["correct"])
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], 0)
                self.check_metrics(r, spec()["end_to_end"])

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = run(w, 1)
                self.assertEqual(r["failed"], 0)
                self.check_metrics(r, spec()["per_layer"])

    def test_wrong_reference_counts_as_failed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = run(w, 0, "--wrong-reference")
                self.assertGreaterEqual(r["failed"], 1)
                self.assertLessEqual(r["failed"], r["attempted"])
                self.assertFalse(r["correct"])


if __name__ == "__main__":
    unittest.main()
