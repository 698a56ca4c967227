#!/usr/bin/env python3
"""The election-sweep benchmark's own tests.

    python3 electbench/test_bench.py      (from the repository root)

Checks the benchmark definition in BENCHMARK.json against the driver: metric
names, units and bounds, the documented workloads, the metric sets each mode
prints, and that a corrupted reference digest is caught (ok_frac < 1).
Builds the driver through run.py first, like a benchmark run does.
"""
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Definition(unittest.TestCase):
    def test_metric_names_are_well_formed(self):
        s = spec()
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_end_to_end_metrics_have_unit_and_bound(self):
        for m in spec()["end_to_end"]:
            self.assertTrue(m["unit"], m["name"])
            self.assertIn(m["better"], ("lower", "higher"), m["name"])
            self.assertGreater(m["bound"], 0, m["name"])
            self.assertLessEqual(m["bound"], 0.25, m["name"])

    def test_setup_s_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_workloads_are_documented(self):
        doc = json.loads((HERE / "workloads.json").read_text())
        names = [w["name"] for w in spec()["workloads"]]
        self.assertEqual(sorted(names), sorted(doc))
        layer_metrics = {m["name"] for m in spec()["per_layer"]}
        end_to_end = {m["name"] for m in spec()["end_to_end"]}
        for name, w in doc.items():
            for key in ("why", "loads", "bypasses", "check", "predicted"):
                self.assertIn(key, w, name)
            for p in w["predicted"]:
                self.assertIn(p["layer_metric"], layer_metrics, name)
                for target in p["moves"]:
                    self.assertIn(target, end_to_end, name)


class Driver(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver, cls.popsim = bench.build()

    def run_driver(self, workload, trace, extra=()):
        args = [str(self.driver), "--workload", workload, "--seed", "7",
                "--seconds", "1", "--trace", str(trace),
                *bench.driver_args(self.popsim), *extra]
        out = subprocess.run(args, capture_output=True, text=True,
                             env=bench.local_env(), timeout=300)
        self.assertEqual(out.returncode, 0, out.stderr)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def assert_metrics(self, result, definitions):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in definitions])
        for m in definitions:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_untraced_run_prints_every_end_to_end_metric(self):
        result = self.run_driver("rr8-sweep-fleet", 0)
        self.assert_metrics(result, spec()["end_to_end"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["ok_frac"]["value"], 1)

    def test_traced_run_prints_every_per_layer_metric(self):
        result = self.run_driver("rr8-sweep-fleet", 1)
        self.assert_metrics(result, spec()["per_layer"])
        self.assertTrue(result["correct"])

    def test_corrupted_digest_drives_ok_frac_below_one(self):
        reference = bench.build_root() / "test-reference"
        shutil.rmtree(reference, ignore_errors=True)
        shutil.copytree(HERE / "reference", reference)
        digest = reference / "rr8-step.trials"
        lines = digest.read_text().splitlines()
        # Corrupt the first trial of every 100-trial block, so whichever
        # block the seed picks holds exactly one wrong expectation.
        for i, line in enumerate(lines):
            fields = line.split()
            if line.startswith("#") or int(fields[0]) % 100 != 0:
                continue
            fields[1] = str(int(fields[1]) + 1)
            lines[i] = " ".join(fields)
        digest.write_text("\n".join(lines) + "\n")
        result = self.run_driver("rr8-step", 0, ["--reference", str(reference)])
        shutil.rmtree(reference)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"] * 100, result["attempted"])
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1)


if __name__ == "__main__":
    unittest.main()
