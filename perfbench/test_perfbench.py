#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py end to end with short runs (it builds the
harness on first use).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Per-layer metrics that are counts or ratios of counts: a deterministic
# simulation must repeat them exactly for a seed.
COUNT_FRACS = {
    "xenstore.tx_retry_frac", "toolstack.shell_pool_hit_frac", "core.job_fail_frac",
    "cluster.admission_reject_frac", "cluster.recovered_frac", "workload.fail_frac",
}


def run(workload, seed, trace, *extra):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.rstrip("\n").split("\n")
    digest = next(l.split()[0].split("=")[1] for l in lines if l.startswith("digest="))
    return json.loads(lines[-1]), digest


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("1/op", "count") or name in COUNT_FRACS}


class PerfbenchTest(unittest.TestCase):
    def test_same_seed_same_digest_and_counts(self):
        for workload in ("fleet_churn", "chaos_heal"):
            first, digest1 = run(workload, 5, 1)
            second, digest2 = run(workload, 5, 1)
            self.assertTrue(first["correct"] and second["correct"])
            self.assertEqual(digest1, digest2, workload)
            self.assertEqual(counts(first), counts(second), workload)

    def test_metric_names_and_units_match_spec(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run("fleet_churn", 3, trace)
            self.assertEqual(list(result), ["correct", "attempted", "failed", "metrics"])
            produced = {n: m["unit"] for n, m in result["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            self.assertEqual(produced, expected)

    def test_recorded_digest_is_checked(self):
        recorded = json.loads(
            (ROOT / "perfbench" / "expected_digests.json").read_text(encoding="utf-8"))
        seed, digest = next(iter(recorded["fleet_churn"].items()))
        result, got = run("fleet_churn", seed, 0)
        self.assertEqual(got, digest)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

        corrupt = {w: {s: "0" * 16 for s in seeds} for w, seeds in recorded.items()}
        path = ROOT / ".bench_build" / "corrupt_digests.json"
        path.write_text(json.dumps(corrupt), encoding="utf-8")
        result, _ = run("fleet_churn", seed, 0, "--digests", str(path))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
