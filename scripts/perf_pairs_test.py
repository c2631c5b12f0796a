#!/usr/bin/env python3
"""Unit tests for perf_pairs.py: the gain rule and bound check on canned
paired results, and a whole run against two stand-in harnesses."""

import importlib.util
import os
import stat
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "perf_pairs.py")
spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
perf_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_pairs)

HIGHER = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "op_host_us_p50", "unit": "us", "better": "lower", "bound": 0.25}


class RuleTest(unittest.TestCase):
    def test_clear_gain_holds(self):
        parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
        change = [120, 121, 122, 123, 124, 125, 126, 127, 128, 129]
        v = perf_pairs.judge(HIGHER, parent, change)
        self.assertEqual((v["wins"], v["ties"], v["losses"]), (10, 0, 0))
        self.assertTrue(v["gain"])
        self.assertTrue(v["within_bound"])

    def test_nine_wins_and_a_tie_hold_but_eight_wins_do_not(self):
        parent = [100] * 10
        nine = [130] * 9 + [100]
        self.assertEqual(perf_pairs.judge(HIGHER, parent, nine)["wins"], 9)
        self.assertTrue(perf_pairs.judge(HIGHER, parent, nine)["gain"])
        # Ties count for neither side: eight wins and two ties fall short.
        eight = [130] * 8 + [100, 100]
        v = perf_pairs.judge(HIGHER, parent, eight)
        self.assertEqual((v["wins"], v["ties"], v["losses"]), (8, 2, 0))
        self.assertFalse(v["gain"])

    def test_median_gap_must_exceed_the_parents_quartile_spread(self):
        # The change wins every pair by 1, but the parent's runs spread over
        # a quartile range of 5.5.
        parent = [100, 110, 101, 109, 102, 108, 103, 107, 104, 106]
        change = [p + 1 for p in parent]
        v = perf_pairs.judge(HIGHER, parent, change)
        self.assertEqual(v["wins"], 10)
        self.assertAlmostEqual(v["spread"], 5.5)
        self.assertAlmostEqual(v["gap"], 1.0)
        self.assertFalse(v["gain"])

    def test_more_failed_operations_void_the_gain(self):
        parent = [100] * 10
        change = [130] * 10
        self.assertTrue(perf_pairs.judge(HIGHER, parent, change, (3, 3))["gain"])
        self.assertTrue(perf_pairs.judge(HIGHER, parent, change, (3, 1))["gain"])
        self.assertFalse(perf_pairs.judge(HIGHER, parent, change, (3, 4))["gain"])

    def test_lower_is_better_reads_the_direction(self):
        parent = [24.4] * 10
        change = [21.0] * 10
        self.assertTrue(perf_pairs.judge(LOWER, parent, change)["gain"])
        self.assertFalse(perf_pairs.judge(LOWER, change, parent)["gain"])
        self.assertFalse(perf_pairs.judge(HIGHER, parent, change)["gain"])

    def test_bound_flags_a_median_worse_by_more_than_the_bound(self):
        parent = [100.0] * 4
        self.assertTrue(perf_pairs.judge(LOWER, parent, [125.0] * 4)["within_bound"])
        self.assertFalse(perf_pairs.judge(LOWER, parent, [126.0] * 4)["within_bound"])
        self.assertFalse(perf_pairs.judge(HIGHER, parent, [74.0] * 4)["within_bound"])

    def test_quartiles_interpolate(self):
        self.assertEqual(perf_pairs.quartiles([1, 2, 3, 4, 5]), (2, 3, 4))
        self.assertEqual(perf_pairs.quartiles([7]), (7, 7, 7))


# Prints one harness result line whose metrics grow by `step` per run.
FAKE_HARNESS = """#!/usr/bin/env python3
import json, os, sys
counter = os.path.join(os.path.dirname(os.path.abspath(__file__)), "{name}.count")
n = int(open(counter).read()) if os.path.exists(counter) else 0
open(counter, "w").write(str(n + 1))
assert sys.argv[1:] == ["--workload", "fleet_churn", "--seed", "2", "--seconds", "0.5",
                        "--trace", "0"], sys.argv
v = {base} + {step} * n
print("report")
print(json.dumps({{"correct": {correct}, "attempted": 10, "failed": {failed}, "end_to_end": {{
    "ops_per_s": [v, "1/s"], "op_host_us_p50": [1e6 / v, "us"],
    "op_host_us_p99": [2e6 / v, "us"], "setup_s": [0.001, "s"],
    "peak_rss_mib": [7.5, "MiB"]}}}}))
"""


class EndToEndTest(unittest.TestCase):
    def run_pairs(self, change_correct="True", change_failed=0):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, base, correct, failed in (("parent", 100, "True", 0),
                                                ("change", 120, change_correct,
                                                 change_failed)):
                path = os.path.join(d, name)
                with open(path, "w") as f:
                    f.write(FAKE_HARNESS.format(name=name, base=base, step=1,
                                                correct=correct, failed=failed))
                os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
                paths.append(path)
            return subprocess.run(
                [sys.executable, SCRIPT, *paths, "--workload", "fleet_churn",
                 "--seed", "2", "--seconds", "0.5", "--pairs", "4"],
                capture_output=True, text=True, check=False)

    def test_alternates_order_and_reports_every_metric(self):
        done = self.run_pairs()
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertIn("pair  1 (parent first)", done.stdout)
        self.assertIn("pair  2 (change first)", done.stdout)
        rows = {line.split()[0]: line for line in done.stdout.splitlines()
                if line.split() and line.split()[0] in
                ("ops_per_s", "op_host_us_p50", "setup_s", "peak_rss_mib")}
        self.assertEqual(len(rows), 4)
        self.assertRegex(rows["ops_per_s"], r" 4/0/0\s+yes\s+ok")
        self.assertRegex(rows["op_host_us_p50"], r" 4/0/0\s+yes\s+ok")
        self.assertRegex(rows["peak_rss_mib"], r" 0/4/0\s+no\s+ok")
        self.assertIn("failed operations: parent 0, change 0", done.stdout)

    def test_a_change_that_fails_more_operations_claims_no_gain(self):
        done = self.run_pairs(change_failed=1)
        self.assertEqual(done.returncode, 0, done.stderr)
        rows = {line.split()[0]: line for line in done.stdout.splitlines()
                if line.split() and line.split()[0] == "ops_per_s"}
        self.assertRegex(rows["ops_per_s"], r" 4/0/0\s+no\s+ok")
        self.assertIn("failed operations: parent 0, change 4", done.stdout)

    def test_an_incorrect_run_fails_the_script(self):
        done = self.run_pairs(change_correct="False")
        self.assertEqual(done.returncode, 1)
        self.assertIn("incorrect", done.stderr)


if __name__ == "__main__":
    unittest.main()
