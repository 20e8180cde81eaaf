#!/usr/bin/env python3
"""The benchmark's own tests, on the short mode of each workload.

Run from the repository root:

    python3 e2e_bench/test_bench.py

For every workload they check that each metric BENCHMARK.json names is
emitted with its unit (end-to-end metrics untraced, per-layer metrics traced),
that no job failed, that busy threads stay within nproc - 1, that the run's
work directory is not on tmpfs, that a second seed does the same number of
jobs with non-degenerate work, and that the answer check fails when one
reference answer is perturbed. A last test checks that the command fails
cleanly when the library sources are absent.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_mixed", "cold_prepare", "stream_refresh")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def run(workload, seed=3, trace=0, extra=(), cwd=ROOT):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", "1", "--trace",
               str(trace), "--short", *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done.stdout + done.stderr


class ShortModeTest(unittest.TestCase):
    def check_metrics(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        expected = {m["name"]: m["unit"] for m in specs}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics_and_no_failures(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, log = run(workload)
                self.assertEqual(code, 0, log)
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"], log)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0, log)
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)
                self.assertIn("# failed_frac = 0 ", log)
                for name in ("seed", "hardware_concurrency", "cpu_model",
                             "kernel_isa", "build_type", "source"):
                    self.assertIn('"%s": ' % name, log)
                for name in ("probe_ms", "steal_frac", "busy_threads"):
                    self.assertRegex(log, r'# host \{.*"%s": ' % name)

    def test_traced_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, log = run(workload, trace=1)
                self.assertEqual(code, 0, log)
                self.check_metrics(result, SPEC["per_layer"])
                self.assertTrue(result["correct"], log)
                self.assertEqual(result["failed"], 0, log)
                metrics = result["metrics"]
                self.assertGreater(metrics["trace.coverage"]["value"], 0.0)
                self.assertGreater(metrics["trace.overhead"]["value"], 0.0)
                self.assertGreater(metrics["host.probe_ms"]["value"], 0.0)
                self.assertIn("trace written to", log)
                self.assertIn("# not exercised in %s: " % workload, log)
                if workload != "cold_prepare":
                    # Measured from the pool's worker threads, not computed.
                    self.assertGreater(
                        metrics["pool.worker_cpu_ms_per_job"]["value"], 0.0)

    def test_busy_threads_within_budget(self):
        budget = max(1, (os.cpu_count() or 1) - 1)
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, log = run(workload, trace=1)
                self.assertEqual(code, 0, log)
                busy = result["metrics"]["threads.busy"]["value"]
                self.assertGreaterEqual(busy, 1)
                self.assertLessEqual(busy, budget, log)
                for found in re.findall(r'"busy_threads": (\d+)', log):
                    self.assertLessEqual(int(found), budget, log)

    def test_work_directory_not_tmpfs(self):
        code, result, log = run("serve_mixed")
        self.assertEqual(code, 0, log)
        self.assertIn('# work directory {"tmpfs": false', log)

    def test_second_seed_same_work_not_degenerate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code_a, a, log_a = run(workload, seed=3, trace=1)
                code_b, b, log_b = run(workload, seed=4, trace=1)
                self.assertEqual((code_a, code_b), (0, 0), log_a + log_b)
                # The benchmark itself marks a run incorrect when a GA job
                # descended from no seed, a cold_prepare job hit the cache or
                # a stream flush left the patch path.
                self.assertTrue(a["correct"] and b["correct"], log_a + log_b)
                self.assertEqual(a["attempted"], b["attempted"])
                m = b["metrics"]
                self.assertGreater(m["newsea.inits"]["value"], 0.0)
                if workload == "cold_prepare":
                    self.assertEqual(m["cache.hit_ratio"]["value"], 0.0)
                if workload == "stream_refresh":
                    self.assertEqual(m["session.update_rebuilds"]["value"], 0.0)
                    self.assertEqual(m["session.update_patches"]["value"],
                                     b["attempted"] / 2)
                if workload == "serve_mixed":
                    self.assertEqual(m["cache.hit_ratio"]["value"], 1.0)

    def test_perturbed_reference_fails_the_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, log = run(workload, extra=["--perturb-reference"])
                self.assertEqual(code, 0, log)
                self.assertFalse(result["correct"], log)
                self.assertGreaterEqual(result["failed"], 1, log)
                self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)
                self.assertIn("# wrong answer: seed 3", log)


class MissingSourcesTest(unittest.TestCase):
    def test_fails_without_library_sources(self):
        build_root = os.path.join(ROOT, ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            command = [sys.executable] + SPEC["command"][1:] + [
                "--workload", "serve_mixed", "--seed", "1", "--seconds", "1",
                "--trace", "0"]
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            done = subprocess.run(command, cwd=bare, capture_output=True,
                                  text=True, timeout=180, env=env)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
