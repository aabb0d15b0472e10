#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py

Run from the root of a checkout; takes a few minutes. For every workload a
truncated (--smoke) run must print each metric of BENCHMARK.json with its
unit, untraced and traced, with no failed check; a run that flips one
output before checking it (--corrupt) must report a failure. A directory
holding only BENCHMARK.json and perfbench/ must make the benchmark exit
with an error and no result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    p = subprocess.run([sys.executable, RUN, "--seed", "3", "--seconds", "1", *args], cwd=cwd,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    return p.returncode, p.stdout.strip().splitlines(), p.stderr


def result(lines):
    r = json.loads(lines[-1])
    assert set(r) == {"correct", "attempted", "failed", "metrics"}, r.keys()
    return r


class SmokeRuns(unittest.TestCase):

    def check_metrics(self, r, listed):
        want = {m["name"]: m["unit"] for m in SPEC[listed]}
        self.assertEqual(set(r["metrics"]), set(want))
        for name, unit in want.items():
            self.assertEqual(r["metrics"][name]["unit"], unit, name)
            self.assertIsInstance(r["metrics"][name]["value"], (int, float), name)

    def test_every_workload_emits_every_metric(self):
        for w in WORKLOADS:
            for trace, listed in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    code, lines, err = run("--workload", w, "--trace", trace, "--smoke")
                    self.assertEqual(code, 0, err[-2000:])
                    r = result(lines)
                    self.assertTrue(r["correct"], lines[-2])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.check_metrics(r, listed)
                    if trace == "0":
                        for m in r["metrics"].values():
                            self.assertGreater(m["value"], 0)

    def test_a_corrupted_output_is_counted_as_failed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines, err = run("--workload", w, "--trace", "0", "--smoke", "--corrupt")
                self.assertEqual(code, 0, err[-2000:])
                r = result(lines)
                self.assertGreater(r["failed"], 0)
                self.assertFalse(r["correct"])

    def test_without_the_program_it_fails_without_a_result(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                                "--seconds", "1", "--trace", "0"], cwd=bare, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
