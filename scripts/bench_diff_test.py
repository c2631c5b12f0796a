#!/usr/bin/env python3
"""Unit tests for the regression math and registry comparison in
bench_diff.py.

Runs bench_diff.py as a subprocess against synthetic BENCH documents and
checks the exit code, so the test exercises exactly what CI exercises
(argument parsing, gating defaults, thresholds) rather than internals.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

BENCH_DIFF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "bench_diff.py")


def make_doc(points, columns=("n", "create_ms", "boot_ms"), name="t"):
    return {
        "schema": "lightvm-bench/1",
        "name": name,
        "title": name,
        "config": {},
        "series": {
            "vm": {"columns": list(columns), "points": points},
        },
        "metrics": {},
    }


class BenchDiffTest(unittest.TestCase):
    def run_diff(self, old, new, *extra):
        with tempfile.TemporaryDirectory() as d:
            old_path = os.path.join(d, "old.json")
            new_path = os.path.join(d, "new.json")
            with open(old_path, "w") as f:
                json.dump(old, f)
            with open(new_path, "w") as f:
                json.dump(new, f)
            proc = subprocess.run(
                [sys.executable, BENCH_DIFF, old_path, new_path] + list(extra),
                capture_output=True, text=True)
        return proc

    def test_identical_passes(self):
        doc = make_doc([[1, 10.0, 100.0], [2, 11.0, 105.0]])
        proc = self.run_diff(doc, copy.deepcopy(doc))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("OK:", proc.stdout)

    def test_improvement_passes(self):
        old = make_doc([[1, 10.0, 100.0], [2, 11.0, 105.0]])
        new = make_doc([[1, 5.0, 50.0], [2, 6.0, 55.0]])
        proc = self.run_diff(old, new)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_regression_on_gated_column_fails(self):
        old = make_doc([[1, 10.0, 100.0], [2, 10.0, 100.0]])
        # create_ms regresses by 50% on every point; boot_ms unchanged.
        new = make_doc([[1, 15.0, 100.0], [2, 15.0, 100.0]])
        proc = self.run_diff(old, new, "--threshold", "10")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("REGRESSION: vm/create_ms", proc.stdout)
        self.assertNotIn("REGRESSION: vm/boot_ms", proc.stdout)

    def test_regression_below_threshold_passes(self):
        old = make_doc([[1, 100.0, 100.0]])
        new = make_doc([[1, 105.0, 100.0]])  # +5% < 10% threshold
        proc = self.run_diff(old, new, "--threshold", "10")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_single_bad_point_fails_by_default(self):
        old = make_doc([[i, 100.0, 100.0] for i in range(10)])
        new_points = [[i, 100.0, 100.0] for i in range(10)]
        new_points[7][1] = 130.0  # one +30% point; mean is only +3%
        proc = self.run_diff(old, make_doc(new_points), "--threshold", "10")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("point 7", proc.stdout)

    def test_single_bad_point_passes_with_mean_only(self):
        old = make_doc([[i, 100.0, 100.0] for i in range(10)])
        new_points = [[i, 100.0, 100.0] for i in range(10)]
        new_points[7][1] = 130.0
        proc = self.run_diff(old, make_doc(new_points), "--threshold", "10",
                             "--mean-only")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_non_gated_column_regression_ignored(self):
        # "n" has no _ms/_s suffix: a change there is informational only.
        old = make_doc([[10, 10.0, 100.0]])
        new = make_doc([[99, 10.0, 100.0]])
        proc = self.run_diff(old, new)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_explicit_gate_narrows_selection(self):
        old = make_doc([[1, 10.0, 100.0]])
        new = make_doc([[1, 20.0, 200.0]])  # both timing columns +100%
        # Only boot_ms is gated, but it regressed too -> still fails...
        proc = self.run_diff(old, new, "--gate", "vm:boot_ms")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("REGRESSION: vm/boot_ms", proc.stdout)
        self.assertNotIn("REGRESSION: vm/create_ms", proc.stdout)
        # ...and gating a different series entirely ignores this one.
        proc = self.run_diff(old, new, "--gate", "other")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_zero_baseline_points_skipped(self):
        old = make_doc([[1, 0.0, 100.0], [2, 10.0, 100.0]])
        new = make_doc([[1, 50.0, 100.0], [2, 10.0, 100.0]])
        proc = self.run_diff(old, new)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_point_count_mismatch_is_an_error(self):
        old = make_doc([[1, 10.0, 100.0], [2, 10.0, 100.0]])
        new = make_doc([[1, 10.0, 100.0]])
        proc = self.run_diff(old, new)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)

    def test_schema_mismatch_is_an_error(self):
        old = make_doc([[1, 10.0, 100.0]])
        new = make_doc([[1, 10.0, 100.0]])
        new["schema"] = "lightvm-bench/999"
        proc = self.run_diff(old, new)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)

    def test_name_mismatch_is_an_error(self):
        old = make_doc([[1, 10.0, 100.0]], name="a")
        new = make_doc([[1, 10.0, 100.0]], name="b")
        proc = self.run_diff(old, new)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)

    def test_missing_series_is_an_error(self):
        old = make_doc([[1, 10.0, 100.0]])
        new = make_doc([[1, 10.0, 100.0]])
        new["series"]["renamed"] = new["series"].pop("vm")
        proc = self.run_diff(old, new)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)

    # --- SLO verdict surfacing ------------------------------------------

    @staticmethod
    def add_slo(doc, value, bound):
        doc["series"]["slo"] = {
            "columns": ["recovery_p99_ms", "recovery_p99_ms_bound",
                        "recovery_p99_ms_ok"],
            "points": [[value, bound, 1.0 if value <= bound else 0.0]],
        }

    def test_slo_pass_surfaced(self):
        old = make_doc([[1, 10.0, 100.0]])
        new = make_doc([[1, 10.0, 100.0]])
        self.add_slo(old, 300.0, 450.0)
        self.add_slo(new, 320.0, 450.0)
        proc = self.run_diff(old, new)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("SLO", proc.stdout)
        self.assertIn("PASS", proc.stdout)

    def test_slo_pass_to_fail_is_a_regression(self):
        old = make_doc([[1, 10.0, 100.0]])
        new = make_doc([[1, 10.0, 100.0]])
        self.add_slo(old, 300.0, 450.0)
        self.add_slo(new, 500.0, 450.0)
        proc = self.run_diff(old, new, "--threshold", "99999")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("FAIL", proc.stdout)
        self.assertIn("REGRESSION: slo recovery_p99_ms", proc.stdout)

    def test_slo_only_in_candidate_is_informational(self):
        # A baseline predating SLOs doesn't fail the diff even when the
        # candidate's bound is violated — there is no pass->fail transition.
        old = make_doc([[1, 10.0, 100.0]])
        new = make_doc([[1, 10.0, 100.0]])
        self.add_slo(new, 500.0, 450.0)
        proc = self.run_diff(old, new)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("FAIL", proc.stdout)

    # --- Registry snapshot ----------------------------------------------

    @staticmethod
    def add_registry(doc):
        doc["metrics"] = {
            "counters": {"hv.hypervisor.hypercalls": 120,
                         "node.jobs.failed": 0},
            "gauges": {"node.jobs.active": 0},
            "histograms": {"toolstack.chaos.create_ms": {
                "unit": "ms", "count": 2, "sum": 3.5, "min": 1.5,
                "max": 2.0, "p50": 1.5, "buckets": [[1.5, 1.515625, 1],
                                                    [2.0, 2.03125, 1]]}},
        }
        return doc

    def test_identical_registry_passes(self):
        old = self.add_registry(make_doc([[1, 10.0, 100.0]]))
        proc = self.run_diff(old, copy.deepcopy(old))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("registry: 4 entries, 0 differ", proc.stdout)

    def test_changed_registry_value_fails(self):
        old = self.add_registry(make_doc([[1, 10.0, 100.0]]))
        new = copy.deepcopy(old)
        new["metrics"]["counters"]["hv.hypervisor.hypercalls"] = 121
        new["metrics"]["histograms"]["toolstack.chaos.create_ms"][
            "buckets"][1][2] = 2
        proc = self.run_diff(old, new)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("REGISTRY: counter hv.hypervisor.hypercalls 120 -> 121",
                      proc.stdout)
        self.assertIn("REGISTRY: histogram toolstack.chaos.create_ms",
                      proc.stdout)

    def test_registry_entry_on_one_side_fails(self):
        old = self.add_registry(make_doc([[1, 10.0, 100.0]]))
        new = copy.deepcopy(old)
        del new["metrics"]["counters"]["node.jobs.failed"]
        new["metrics"]["gauges"]["toolstack.chaosd.pool_size"] = 8
        proc = self.run_diff(old, new)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("REGISTRY: counter node.jobs.failed only in the baseline",
                      proc.stdout)
        self.assertIn("REGISTRY: gauge toolstack.chaosd.pool_size only in the "
                      "candidate", proc.stdout)


if __name__ == "__main__":
    unittest.main()
