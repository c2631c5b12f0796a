#!/usr/bin/env python3
"""Compare two BENCH_*.json artifacts (or directories of them) and fail on
hot-path performance regressions or any change to the metrics registry.

Both inputs must carry the `lightvm-bench/1` schema. Series are matched by
name, points by index — the simulation is deterministic, so a given spec +
seed produces the same row count and ordering every run; a count mismatch
means the two files came from different specs and is an error, not a diff.

Gating: only "hot-path" columns are gated — by default every column whose
name ends in `_ms` or `_s` (timings; higher is worse). Non-gated columns
(counts, indices, node assignments) are compared for information only.
For each gated (series, column) the tool computes the per-point relative
change (new-old)/old and fails when either

  * the mean change exceeds --threshold %, or
  * any single point exceeds --threshold % and --per-point is set
    (default: on — the simulator is noise-free, so a single regressed
    point is a real regression, not jitter).

Improvements (negative change) never fail. Use --gate SERIES[:COLUMN]
(repeatable) to override the default hot-path selection.

SLO verdicts: a document produced by `scenario_runner --check` carries an
"slo" series (one row: <key>, <key>_bound, <key>_ok per configured bound).
Those verdicts are surfaced as SLO PASS/FAIL lines, and a bound that passed
in the baseline but fails in the candidate is a regression even when the
raw timing change stays under --threshold.

Registry: each document embeds a snapshot of the metrics registry (its
"metrics" section: counters, gauges and histograms). Runs are deterministic,
so the two snapshots must be equal entry by entry, by name and value; any
difference, or an entry present on one side only, fails the diff and is
listed. An intended behaviour change updates the baseline, as it does for
the series.

Exit codes: 0 clean, 1 regression or registry difference found, 2
usage/schema error.

Usage:
  bench_diff.py old/BENCH_x.json new/BENCH_x.json
  bench_diff.py baselines/ out/ --threshold 10
  bench_diff.py a.json b.json --gate lightvm:create_ms --gate summary
"""

import argparse
import json
import os
import sys

SCHEMA = "lightvm-bench/1"
HOT_SUFFIXES = ("_ms", "_s")


def die(msg):
    print("ERROR: %s" % msg)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die("%s: %s" % (path, e))
    if doc.get("schema") != SCHEMA:
        die("%s: schema is %r, want %r (bench_diff only understands "
            "schema-versioned BENCH files)" % (path, doc.get("schema"), SCHEMA))
    if not isinstance(doc.get("series"), dict) or not doc["series"]:
        die("%s: no series recorded" % path)
    return doc


def parse_gates(gate_args):
    """--gate SERIES[:COLUMN] -> {series: set(columns) or None (=defaults)}."""
    gates = {}
    for g in gate_args or []:
        if ":" in g:
            series, column = g.split(":", 1)
            gates.setdefault(series, set())
            if gates[series] is not None:
                gates[series].add(column)
        else:
            gates[g] = None
    return gates


def gated_columns(series_name, columns, gates):
    """Columns of this series that are gated (order preserved)."""
    if gates:
        if series_name not in gates:
            return []
        wanted = gates[series_name]
        if wanted is None:
            return [c for c in columns if c.endswith(HOT_SUFFIXES)]
        missing = wanted - set(columns)
        if missing:
            die("series %r has no column(s) %s" %
                (series_name, ", ".join(sorted(missing))))
        return [c for c in columns if c in wanted]
    return [c for c in columns if c.endswith(HOT_SUFFIXES)]


def diff_series(name, old, new, threshold, per_point, failures):
    if old["columns"] != new["columns"]:
        die("series %r: columns differ (%r vs %r) — not comparable" %
            (name, old["columns"], new["columns"]))
    if len(old["points"]) != len(new["points"]):
        die("series %r: %d points vs %d — the runs came from different "
            "specs (or a run truncated); refusing to diff" %
            (name, len(old["points"]), len(new["points"])))
    return old["columns"], len(old["points"])


def diff_column(name, column, idx, old_points, new_points, threshold,
                per_point, gated):
    changes = []
    worst = (0.0, -1)  # (signed change, point index)
    for i, (o, n) in enumerate(zip(old_points, new_points)):
        ov, nv = o[idx], n[idx]
        if ov == 0:
            continue  # no relative change is defined; zero baselines are
                      # counts that the non-gated report already covers
        change = (nv - ov) / abs(ov)
        changes.append(change)
        if change > worst[0]:
            worst = (change, i)
    if not changes:
        return []
    mean = sum(changes) / len(changes)
    verdicts = []
    tag = "%s/%s" % (name, column)
    if gated:
        if mean * 100.0 > threshold:
            verdicts.append("REGRESSION: %s mean %+.2f%% exceeds %.1f%% "
                            "(worst %+.2f%% at point %d)" %
                            (tag, mean * 100.0, threshold, worst[0] * 100.0,
                             worst[1]))
        elif per_point and worst[0] * 100.0 > threshold:
            verdicts.append("REGRESSION: %s point %d %+.2f%% exceeds %.1f%% "
                            "(mean %+.2f%%)" %
                            (tag, worst[1], worst[0] * 100.0, threshold,
                             mean * 100.0))
    status = "GATED" if gated else "info "
    print("%s %-40s mean %+8.2f%%  worst %+8.2f%%  (%d points)" %
          (status, tag, mean * 100.0, worst[0] * 100.0, len(changes)))
    return verdicts


def slo_row(doc):
    """The `slo` series' single row as {column: value}, or None."""
    series = doc.get("series", {}).get("slo")
    if not series or not series.get("points"):
        return None
    return dict(zip(series["columns"], series["points"][-1]))


def report_slo(old, new):
    """Print SLO verdicts from the candidate; fail pass->fail transitions."""
    new_row = slo_row(new)
    if new_row is None:
        return []
    old_row = slo_row(old) or {}
    failures = []
    for column in sorted(c for c in new_row if c.endswith("_ok")):
        key = column[:-len("_ok")]
        ok = new_row[column] == 1.0
        print("SLO   %-40s %s  (%.3f <= %.3f)" %
              (key, "PASS" if ok else "FAIL", new_row.get(key, 0.0),
               new_row.get(key + "_bound", 0.0)))
        if not ok and old_row.get(column) == 1.0:
            failures.append("REGRESSION: slo %s passed in the baseline but "
                            "fails now (%.3f > %.3f)" %
                            (key, new_row.get(key, 0.0),
                             new_row.get(key + "_bound", 0.0)))
    return failures


def describe(value):
    """A registry value for a difference line; bucket lists are summarised."""
    if isinstance(value, dict):
        return "{%s}" % ", ".join(
            "%s: %s" % (k, "[%d buckets]" % len(v) if isinstance(v, list)
                        else json.dumps(v))
            for k, v in sorted(value.items()))
    return json.dumps(value)


def diff_registry(old, new):
    """Exact comparison of the embedded registry snapshots."""
    old_metrics = old.get("metrics") or {}
    new_metrics = new.get("metrics") or {}
    differences = []
    entries = 0
    for kind in ("counters", "gauges", "histograms"):
        old_entries = old_metrics.get(kind) or {}
        new_entries = new_metrics.get(kind) or {}
        for name in sorted(set(old_entries) | set(new_entries)):
            entries += 1
            tag = "REGISTRY: %s %s" % (kind[:-1], name)
            if name not in new_entries:
                differences.append("%s only in the baseline (%s)" %
                                   (tag, describe(old_entries[name])))
            elif name not in old_entries:
                differences.append("%s only in the candidate (%s)" %
                                   (tag, describe(new_entries[name])))
            elif old_entries[name] != new_entries[name]:
                ov, nv = old_entries[name], new_entries[name]
                if isinstance(ov, dict) and isinstance(nv, dict):
                    keys = sorted(k for k in set(ov) | set(nv)
                                  if ov.get(k) != nv.get(k))
                    ov = {k: ov.get(k) for k in keys}
                    nv = {k: nv.get(k) for k in keys}
                differences.append("%s %s -> %s" %
                                   (tag, describe(ov), describe(nv)))
    print("registry: %d entries, %d differ" % (entries, len(differences)))
    return differences


def diff_files(old_path, new_path, threshold, per_point, gates):
    old = load(old_path)
    new = load(new_path)
    if old.get("name") != new.get("name"):
        die("%s is %r but %s is %r — different benchmarks" %
            (old_path, old.get("name"), new_path, new.get("name")))
    print("== %s: %s -> %s" % (old.get("name"), old_path, new_path))
    failures = []
    for name, old_series in old["series"].items():
        new_series = new["series"].get(name)
        if new_series is None:
            die("series %r missing from %s" % (name, new_path))
        columns, _ = diff_series(name, old_series, new_series, threshold,
                                 per_point, failures)
        gated = set(gated_columns(name, columns, gates))
        for idx, column in enumerate(columns):
            failures.extend(diff_column(name, column, idx,
                                        old_series["points"],
                                        new_series["points"], threshold,
                                        per_point, column in gated))
    extra = set(new["series"]) - set(old["series"])
    if extra:
        print("note: new series not in baseline (not gated): %s" %
              ", ".join(sorted(extra)))
    failures.extend(report_slo(old, new))
    failures.extend(diff_registry(old, new))
    return failures


def pair_directories(old_dir, new_dir):
    old_files = sorted(f for f in os.listdir(old_dir) if f.endswith(".json"))
    if not old_files:
        die("%s: no .json baselines" % old_dir)
    pairs = []
    for f in old_files:
        new_path = os.path.join(new_dir, f)
        if not os.path.exists(new_path):
            die("baseline %s has no counterpart in %s" % (f, new_dir))
        pairs.append((os.path.join(old_dir, f), new_path))
    return pairs


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", help="baseline BENCH json file or directory")
    parser.add_argument("new", help="candidate BENCH json file or directory")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="max tolerated regression, percent (default 10)")
    parser.add_argument("--per-point", dest="per_point", action="store_true",
                        default=True, help="fail on any single regressed "
                        "point (default)")
    parser.add_argument("--mean-only", dest="per_point", action="store_false",
                        help="only gate the mean change per column")
    parser.add_argument("--gate", action="append", metavar="SERIES[:COLUMN]",
                        help="gate only these series/columns (repeatable); "
                        "default: every *_ms / *_s column")
    args = parser.parse_args()

    gates = parse_gates(args.gate)
    if os.path.isdir(args.old) != os.path.isdir(args.new):
        die("old and new must both be files or both be directories")
    if os.path.isdir(args.old):
        pairs = pair_directories(args.old, args.new)
    else:
        pairs = [(args.old, args.new)]

    failures = []
    for old_path, new_path in pairs:
        failures.extend(diff_files(old_path, new_path, args.threshold,
                                   args.per_point, gates))
    if failures:
        print()
        for f in failures:
            print(f)
        print("FAIL: %d hot-path regression(s) above %.1f%% or registry "
              "difference(s)" % (len(failures), args.threshold))
        sys.exit(1)
    print("OK: no hot-path regressions above %.1f%%, registry unchanged" %
          args.threshold)


if __name__ == "__main__":
    main()
