#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself, on small inputs.

    python3 e2ebench/test_e2ebench.py

They build the benchmark binary on first use (through run.py) and run every workload
in smoke mode: small inputs, about a second per run.
"""

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SCRATCH = os.path.join(ROOT, ".bench_build", "tests")


def smoke(workload, trace, *extra):
    """Runs run.py in smoke mode; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", "0.5", "--trace",
         str(trace), "--smoke", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=900, cwd=ROOT)
    return proc.returncode, proc.stdout.strip().splitlines()


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        for n, pct in ((20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
                       (200, 95.0), (1000, 99.0), (10000, 99.9)):
            samples = [float(i) for i in range(n)]
            chosen, _, count = run.tail_percentile(samples)
            self.assertEqual(chosen, pct, n)
            self.assertEqual(count, n)
            beyond = n - math.ceil(round(chosen * n / 100.0, 9))
            self.assertGreaterEqual(beyond, 10)

    def test_too_few_samples_are_refused(self):
        with self.assertRaises(ValueError):
            run.tail_percentile([1.0] * 19)

    def test_percentile_follows_the_guaranteed_basis(self):
        # 500 samples measured, 100 guaranteed: p90, not p95.
        chosen, _, count = run.tail_percentile(list(range(500)), basis=100)
        self.assertEqual((chosen, count), (90.0, 500))

    def test_pass_mean_is_the_median_of_pass_means(self):
        self.assertEqual(run.pass_mean([1.0, 3.0, 10.0, 10.0, 2.0, 4.0], 2),
                         3.0)
        with self.assertRaises(ValueError):
            run.pass_mean([1.0, 2.0, 3.0], 2)

    def test_quantile_estimates(self):
        self.assertAlmostEqual(run.quantile(list(range(1, 101)), 50.0), 50.5)
        self.assertAlmostEqual(run.quantile([3.0] * 25, 90.0), 3.0)
        self.assertAlmostEqual(run.beta_cdf(2.0, 5.0, 0.3), 0.579825, places=6)
        # A gap at the median: the estimate lies between its two sides.
        gap = [1.0] * 50 + [10.0] * 50
        self.assertTrue(1.0 < run.quantile(gap, 50.0) < 10.0)


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_result(self, lines, declared):
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in declared])
        for m in declared:
            self.assertRegex(m["name"], NAME)
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        manifest = json.loads(lines[0])["manifest"]
        for key in ("git_sha", "build_type", "nproc", "loadavg", "seed",
                    "wall_s", "events", "peak_rss_mb"):
            self.assertIn(key, manifest)
        return result, manifest

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = smoke(workload, 0)
                self.assertEqual(code, 0)
                self.check_result(lines, self.spec["end_to_end"])
                code, lines = smoke(workload, 1)
                self.assertEqual(code, 0)
                _, manifest = self.check_result(lines, self.spec["per_layer"])
                with open(manifest["chrome_trace"]) as f:
                    self.assertTrue(json.load(f)["traceEvents"])

    def test_corrupted_digest_raises_fail_ratio(self):
        goldens = run.load_goldens(run.GOLDENS)
        key = run.golden_key("portfolio", True, run.DEFAULT_SEED)
        self.assertIn(key, goldens)
        op = sorted(goldens[key])[0]
        goldens[key][op] = "0" * 16
        os.makedirs(SCRATCH, exist_ok=True)
        path = os.path.join(SCRATCH, "corrupted-goldens.json")
        with open(path, "w") as f:
            json.dump(goldens, f)
        argv = ["run.py", "--workload", "portfolio", "--seed",
                str(run.DEFAULT_SEED), "--seconds", "0.5", "--trace", "0",
                "--smoke"]
        out = io.StringIO()
        with mock.patch.object(run, "GOLDENS", path), \
                mock.patch.object(sys, "argv", argv), \
                contextlib.redirect_stdout(out):
            run.main()
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["ok_ratio"]["value"], 1.0)

    def test_refuses_to_run_without_the_library_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", "graph",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
