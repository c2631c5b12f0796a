#!/usr/bin/env python3
"""Validate a BENCH_*.json results file produced by the bench harness.

Schema checks: the `lightvm-bench/1` envelope (name/title/setup/footnotes/
config), every series has consistent columns and rectangular points, and the
embedded metrics-registry snapshot is well formed (histogram bucket counts
sum to the histogram count, bucket bounds ascend).

Cross-check: the registry's latency histograms are log-bucketed
approximations; for fig04 the toolstack.xl.create_ms histogram's p50/p99
must agree with exact quantiles recomputed from the full-resolution series
points within the documented error bound (1/128, padded to 2% for the
nearest-rank vs interpolation difference).

Usage:
  check_metrics_json.py BENCH_foo.json ...   validate existing file(s)
  check_metrics_json.py --bench <binary>     run the binary --json=<tmp> and
                                             validate what it writes, and
                                             assert its stdout is
                                             byte-identical with and without
                                             --json (metrics must never
                                             perturb the printed figures)
  check_metrics_json.py --bench <scenario_runner> --bench-arg <spec.json>
                                             same, for binaries that take
                                             positional arguments before
                                             --json (--bench-arg repeats)

A bench argument that starts with "--" needs the joined spelling
--bench-arg=--check: argparse reads a separate "--check" as an option of
this script and fails with "expected one argument".

The --bench form over scenarios/ci/fig04_ci.json is registered as a ctest
so the end-to-end path (instrumented hot paths -> registry -> bench
exporter -> loadable JSON) stays green. The fig04 quantile cross-check
fires when the document's "name" contains "fig04" (falling back to the
filename for artifacts without a name).
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

SCHEMA = "lightvm-bench/1"
# Histogram bound is 1/128 (~0.8%); the harness compares nearest-rank
# against bucket midpoints, so pad to 2% to absorb the rank-rule slack.
QUANTILE_TOLERANCE = 0.02


def fail(msg):
    print("FAIL: %s" % msg)
    sys.exit(1)


def check_series(path, name, series):
    columns = series.get("columns")
    points = series.get("points")
    if not isinstance(columns, list) or not columns:
        fail("%s: series %r has no columns" % (path, name))
    if not isinstance(points, list) or not points:
        fail("%s: series %r has no points" % (path, name))
    for i, row in enumerate(points):
        if not isinstance(row, list) or len(row) != len(columns):
            fail("%s: series %r point %d has %d values for %d columns" %
                 (path, name, i, len(row) if isinstance(row, list) else -1,
                  len(columns)))
        for v in row:
            if not isinstance(v, (int, float)):
                fail("%s: series %r point %d has non-numeric value %r" %
                     (path, name, i, v))


def check_histogram(path, name, hist):
    for key in ("count", "sum", "min", "max", "p50", "p90", "p99", "p999",
                "buckets"):
        if key not in hist:
            fail("%s: histogram %r missing %r" % (path, name, key))
    count = hist["count"]
    buckets = hist["buckets"]
    in_buckets = sum(b[2] for b in buckets)
    if in_buckets != count:
        fail("%s: histogram %r bucket counts sum to %d, count says %d" %
             (path, name, in_buckets, count))
    prev_hi = None
    for lo, hi, n in buckets:
        hi_val = math.inf if hi in ("+inf", None) else hi
        if n <= 0:
            fail("%s: histogram %r exports an empty bucket" % (path, name))
        if hi_val <= lo and not (lo == 0 and hi_val == 0):
            fail("%s: histogram %r bucket [%r, %r] is inverted" %
                 (path, name, lo, hi))
        if prev_hi is not None and lo < prev_hi:
            fail("%s: histogram %r buckets overlap at lo=%r" % (path, name, lo))
        prev_hi = hi_val
    if count > 0:
        if not (hist["min"] <= hist["p50"] <= hist["p90"] <= hist["p99"]
                <= hist["p999"] <= hist["max"]):
            fail("%s: histogram %r quantiles not ordered: min=%r p50=%r "
                 "p90=%r p99=%r p999=%r max=%r" %
                 (path, name, hist["min"], hist["p50"], hist["p90"],
                  hist["p99"], hist["p999"], hist["max"]))
        # min/max are exact observed values (not bucket midpoints): min must
        # not exceed the first non-empty bucket's upper bound, max must not
        # undershoot the last one's lower bound. (Underflow catches values
        # below its lo, so only these one-sided bounds are exact.)
        first_hi = buckets[0][1]
        last_lo = buckets[-1][0]
        first_hi = math.inf if first_hi in ("+inf", None) else first_hi
        if hist["min"] > first_hi:
            fail("%s: histogram %r min=%r above first bucket hi=%r" %
                 (path, name, hist["min"], first_hi))
        if hist["max"] < last_lo:
            fail("%s: histogram %r max=%r below last bucket lo=%r" %
                 (path, name, hist["max"], last_lo))


def nearest_rank(sorted_xs, q):
    rank = int(q * (len(sorted_xs) - 1) + 0.5)
    return sorted_xs[rank]


def cross_check_create_ms(path, doc):
    """fig04: histogram quantiles vs exact quantiles from the series points."""
    hist = doc["metrics"]["histograms"].get("toolstack.xl.create_ms")
    if hist is None:
        fail("%s: no toolstack.xl.create_ms histogram in the snapshot" % path)
    create_ms = []
    for name, series in doc["series"].items():
        if "create_ms" not in series["columns"]:
            continue
        idx = series["columns"].index("create_ms")
        create_ms.extend(row[idx] for row in series["points"])
    if len(create_ms) != hist["count"]:
        fail("%s: %d create_ms points in the series but the histogram saw %d "
             "creates" % (path, len(create_ms), hist["count"]))
    create_ms.sort()
    for q, key in ((0.5, "p50"), (0.99, "p99")):
        exact = nearest_rank(create_ms, q)
        approx = hist[key]
        rel = abs(approx - exact) / exact
        if rel > QUANTILE_TOLERANCE:
            fail("%s: %s=%.3f vs exact %.3f — relative error %.4f exceeds "
                 "%.4f" % (path, key, approx, exact, rel, QUANTILE_TOLERANCE))
        print("OK: %s %.3f vs exact %.3f (rel err %.4f)" %
              (key, approx, exact, rel))


def is_fig04(path, doc):
    """The quantile cross-check applies to any fig04-shaped run: detect it
    from the document's own name so renamed output paths (CI artifact dirs,
    scenario_runner --json targets) still get the stronger check."""
    name = doc.get("name")
    if isinstance(name, str) and name:
        return "fig04" in name
    return "fig04" in os.path.basename(path)


def validate(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail("%s: %s" % (path, e))

    if doc.get("schema") != SCHEMA:
        fail("%s: schema is %r, want %r" % (path, doc.get("schema"), SCHEMA))
    for key, kind in (("name", str), ("title", str), ("setup", str),
                      ("footnotes", list), ("config", dict), ("series", dict),
                      ("metrics", dict)):
        if not isinstance(doc.get(key), kind):
            fail("%s: missing or mistyped %r (want %s)" %
                 (path, key, kind.__name__))
    if not doc["series"]:
        fail("%s: no series recorded" % path)
    for name, series in doc["series"].items():
        check_series(path, name, series)

    metrics = doc["metrics"]
    for key in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(key), dict):
            fail("%s: metrics snapshot missing %r" % (path, key))
    for name, hist in metrics["histograms"].items():
        check_histogram(path, name, hist)

    n_points = sum(len(s["points"]) for s in doc["series"].values())
    print("OK: %s (%d series, %d points, %d counters, %d histograms)" %
          (path, len(doc["series"]), n_points, len(metrics["counters"]),
           len(metrics["histograms"])))

    if is_fig04(path, doc):
        cross_check_create_ms(path, doc)


def run_bench(bench, bench_args):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "BENCH.json")
        # Run once plain and once with --json: the printed tables must be
        # byte-identical (always-on metrics may not perturb any figure).
        plain = subprocess.run([bench] + bench_args, stdout=subprocess.PIPE)
        if plain.returncode != 0:
            fail("%s exited %d" % (bench, plain.returncode))
        with_json = subprocess.run([bench] + bench_args + ["--json=%s" % out],
                                   stdout=subprocess.PIPE)
        if with_json.returncode != 0:
            fail("%s --json exited %d" % (bench, with_json.returncode))
        if plain.stdout != with_json.stdout:
            fail("%s: stdout differs with vs without --json" % bench)
        print("OK: stdout byte-identical with and without --json")
        validate(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*", help="BENCH JSON files to validate")
    parser.add_argument("--bench", help="path to a bench binary; runs it "
                        "with --json first")
    parser.add_argument("--bench-arg", action="append", default=[],
                        help="extra argument passed to the --bench binary "
                        "before --json (repeatable; e.g. a scenario spec "
                        "path for scenario_runner)")
    args = parser.parse_args()
    if not args.files and not args.bench:
        parser.error("give BENCH files and/or --bench")
    if args.bench_arg and not args.bench:
        parser.error("--bench-arg requires --bench")

    for path in args.files:
        validate(path)

    if args.bench:
        run_bench(args.bench, args.bench_arg)


if __name__ == "__main__":
    main()
