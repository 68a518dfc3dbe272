#!/usr/bin/env python3
"""The benchmark's own tests: reduced-size smoke runs and metric names.

    python3 perfbench/test_perfbench.py

For every workload the runner knows, a smoke run at the default seed
checks the pinned smoke-size fingerprints, and a traced smoke run at a
second seed checks the invariants there (periscope_tail also at threads 1
against 2). Both must report correct with no failed repetition. The timed
run must print exactly BENCHMARK.json's end_to_end metrics and the traced
run exactly its per_layer metrics, each with the unit the file gives.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (perfbench/run.py: the build step)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def runner(*args):
    done = subprocess.run([str(run.RUNNER), *args], capture_output=True,
                          text=True, check=False, timeout=600)
    return done


def result(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")
        cls.workloads = runner("--list").stdout.split()

    def smoke(self, workload, seed, trace):
        done = runner("--workload", workload, "--seed", str(seed),
                      "--seconds", "0.1", "--trace", str(trace), "--smoke")
        res = result(done)
        self.assertIsNotNone(res, done.stderr)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"], done.stderr)
        self.assertEqual(res["failed"], 0, done.stderr)
        self.assertGreaterEqual(res["attempted"], 2)
        self.assertEqual(done.returncode, 0, done.stderr)
        return res

    def check_metrics(self, printed, declared):
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in printed.items()}
        self.assertEqual(got, want)
        for name, m in printed.items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_benchmark_workloads_are_runnable(self):
        for w in BENCH["workloads"]:
            self.assertIn(w["name"], self.workloads)

    def test_default_seed_pins_and_end_to_end_metrics(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                res = self.smoke(w, 1, 0)
                self.check_metrics(res["metrics"], BENCH["end_to_end"])
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_second_seed_invariants_and_per_layer_metrics(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                res = self.smoke(w, 7, 1)
                self.check_metrics(res["metrics"], BENCH["per_layer"])

    def test_fails_without_the_sources(self):
        bare = run.BUILD / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", "paper_figures",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, check=False, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
