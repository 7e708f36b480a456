#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny workloads.

    python3 perfbench/test_perfbench.py          (from the repository root)

For every workload: the untraced run emits every end-to-end metric and the
traced run every per-layer metric that BENCHMARK.json names, each finite and
with its declared unit, with every correctness check passing (the program
itself fails a run that leaves a declared metric unset or not finite, so a
missing per-layer metric fails here too). Two runs with
one seed give identical inputs and identical exact counts; another seed
gives other inputs. A directory holding only the benchmark fails to build
and exits non-zero without a report.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
with open(os.path.join(HERE, "workloads.json")) as fh:
    WORKLOADS = json.load(fh)

EXACT_E2E = ("accepted_psms", "index_bytes_per_entry")
EXACT_LAYER = ("hd.candidates_per_query", "accel.phases_per_query")


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=900)
    lines = proc.stdout.strip().split("\n")
    provenance = next(json.loads(l)["provenance"] for l in lines
                      if l.startswith('{"provenance"'))
    return proc, provenance, json.loads(lines[-1])


class Spec(unittest.TestCase):
    def test_workload_notes_cover_benchmark(self):
        names = {w["name"] for w in SPEC["workloads"]}
        self.assertEqual(names, set(WORKLOADS["workloads"]))
        metrics = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        for p in WORKLOADS["predictions"]:
            self.assertIn(p["per_layer"], metrics)
            for e in p["end_to_end"]:
                self.assertIn(e, metrics)
            for w in p["workloads"]:
                self.assertIn(w, names)


class Workloads(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS["workloads"]:
            for key in ((w, 1, 0), (w, 1, 1), (w, 1, 0, "again"),
                        (w, 1, 1, "again"), (w, 2, 0)):
                proc, prov, report = run(key[0], key[1], key[2])
                if proc.returncode != 0:
                    raise AssertionError("%s failed:\n%s" % (key, proc.stderr))
                cls.results[key] = (prov, report)

    def check_metrics(self, report, specs):
        self.assertTrue(report["correct"])
        self.assertEqual(report["failed"], 0)
        self.assertGreaterEqual(report["attempted"], 1)
        self.assertEqual(set(report["metrics"]), {m["name"] for m in specs})
        for m in specs:
            got = report["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_every_metric_emitted_with_unit(self):
        for w in WORKLOADS["workloads"]:
            with self.subTest(workload=w):
                self.check_metrics(self.results[(w, 1, 0)][1],
                                   SPEC["end_to_end"])
                self.check_metrics(self.results[(w, 1, 1)][1],
                                   SPEC["per_layer"])
                for m in SPEC["end_to_end"]:
                    self.assertNotEqual(
                        self.results[(w, 1, 0)][1]["metrics"][m["name"]]
                        ["value"], 0, m["name"])

    def test_same_seed_same_inputs_and_exact_counts(self):
        for w in WORKLOADS["workloads"]:
            with self.subTest(workload=w):
                a, b = self.results[(w, 1, 0)], self.results[(w, 1, 0, "again")]
                self.assertEqual(a[0]["inputs"], b[0]["inputs"])
                for name in EXACT_E2E:
                    self.assertEqual(a[1]["metrics"][name],
                                     b[1]["metrics"][name], name)
                a, b = self.results[(w, 1, 1)], self.results[(w, 1, 1, "again")]
                for name in EXACT_LAYER:
                    self.assertEqual(a[1]["metrics"][name],
                                     b[1]["metrics"][name], name)

    def test_other_seed_other_inputs(self):
        for w in WORKLOADS["workloads"]:
            with self.subTest(workload=w):
                self.assertNotEqual(self.results[(w, 1, 0)][0]["inputs"],
                                    self.results[(w, 2, 0)][0]["inputs"])


class BenchmarkAlone(unittest.TestCase):
    def test_fails_without_the_repository(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "open-batch", "--seed", "1", "--seconds", "1"],
                capture_output=True, text=True, cwd=tmp, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
