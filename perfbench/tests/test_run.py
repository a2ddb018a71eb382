"""Tests of the benchmark's own plumbing: result validation and BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests

They need no build; the driver's numbers are checked by the driver itself
(pass agreement, digests, the traced run's served-vs-in-process comparison).
"""

import json
import re
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def result(**metrics):
    return json.dumps({"correct": True, "attempted": 3, "failed": 0,
                       "metrics": {k: {"value": v, "unit": "s"}
                                   for k, v in metrics.items()}})


class ValidateTest(unittest.TestCase):
    def test_accepts_well_formed_result(self):
        self.assertIsNone(run.validate(result(wall_s=1.5), {"wall_s"}))

    def test_rejects_missing_and_extra_metrics(self):
        self.assertIn("missing", run.validate(result(wall_s=1.5), {"wall_s", "setup_s"}))
        self.assertIn("extra", run.validate(result(wall_s=1.5, x=1), {"wall_s"}))

    def test_rejects_bad_shapes(self):
        self.assertIsNotNone(run.validate("not json", None))
        self.assertIsNotNone(run.validate(json.dumps({"correct": True}), None))
        bad = json.loads(result(wall_s=1.0))
        bad["attempted"] = 0
        self.assertIn("at least 1", run.validate(json.dumps(bad), None))
        bad["attempted"] = True
        self.assertIn("whole number", run.validate(json.dumps(bad), None))

    def test_env_scrubs_netcache_knobs(self):
        import os
        os.environ["NETCACHE_VERIFY"] = "1"
        try:
            self.assertNotIn("NETCACHE_VERIFY", run.clean_env())
        finally:
            del os.environ["NETCACHE_VERIFY"]


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_keys_and_workloads(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))

    def test_metric_names_units_bounds(self):
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_run_budget(self):
        # A full measurement (README, "Bounds and run length"): 4 + 22 runs
        # per workload, each run_seconds plus ~8 s of set-up, build checks
        # and replay, plus two builds, within 57 minutes.
        runs = 4 + 22 * len(self.spec["workloads"])
        self.assertLess(runs * (self.spec["run_seconds"] + 8) + 2 * 120, 3420)


if __name__ == "__main__":
    unittest.main()
