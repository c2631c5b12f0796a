#!/usr/bin/env python3
"""Paired perfbench runs of two harness builds, judged by the gain rule.

    python3 scripts/perf_pairs.py PARENT_HARNESS CHANGE_HARNESS \
        --workload fleet_churn --seed 2 --seconds 10 --pairs 10

Runs PAIRS pairs of untraced runs (`--trace 0`) of one workload, one run of
each build per pair, alternating which build goes first. Every run must
report "correct": true. For each end-to-end metric in BENCHMARK.json it
prints both builds' quartiles (Q1, median, Q3), the change's wins, ties and
losses, and two verdicts:

  * gain: the change wins at least nine tenths of the pairs (a tie counts
    for neither side), its median beats the parent's by more than the
    parent's quartile spread (Q3 - Q1), and its runs failed no more
    operations in total than the parent's;
  * bound: the change's median is no worse than the parent's by more than
    the metric's bound in BENCHMARK.json.

Each metric's direction ("better": "higher" or "lower") comes from
BENCHMARK.json. Exits 1 if any run fails or is incorrect, else 0; the
verdicts are for the reader, not the exit code.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def quartiles(values):
    """(Q1, median, Q3) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def is_better(better, a, b):
    """Whether value a beats value b for a metric whose better side is `better`."""
    return a > b if better == "higher" else a < b


def judge(metric, parent, change, failed=(0, 0)):
    """Judges one end-to-end metric over paired runs.

    `metric` is a BENCHMARK.json end_to_end entry; `parent` and `change` hold
    one value per pair, in pair order; `failed` is each side's total of
    failed operations over its runs.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    better = metric["better"]
    wins = sum(is_better(better, c, p) for p, c in zip(parent, change))
    losses = sum(is_better(better, p, c) for p, c in zip(parent, change))
    ties = len(parent) - wins - losses
    p_q = quartiles(parent)
    c_q = quartiles(change)
    spread = p_q[2] - p_q[0]
    gap = c_q[1] - p_q[1] if better == "higher" else p_q[1] - c_q[1]
    gain = (wins >= math.ceil(WIN_SHARE * len(parent)) and gap > spread
            and failed[1] <= failed[0])
    worse_by = -gap / p_q[1] if p_q[1] else 0.0
    return {
        "name": metric["name"],
        "unit": metric["unit"],
        "better": better,
        "parent": p_q,
        "change": c_q,
        "wins": wins,
        "ties": ties,
        "losses": losses,
        "gap": gap,
        "spread": spread,
        "gain": gain,
        "within_bound": worse_by <= metric["bound"],
        "bound": metric["bound"],
    }


def run_harness(harness, workload, seed, seconds):
    """Runs one untraced repetition set; returns the harness's JSON result."""
    cmd = [str(harness), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: "
                           f"{done.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise RuntimeError(f"{' '.join(cmd)} reported an incorrect run")
    return result


def format_row(v):
    p1, pm, p3 = v["parent"]
    c1, cm, c3 = v["change"]
    return (f"{v['name']:<16} {v['unit']:<4} {v['better']:<6} "
            f"{pm:>12.5g} [{p1:.5g}, {p3:.5g}]  {cm:>12.5g} [{c1:.5g}, {c3:.5g}]  "
            f"{v['wins']:>2}/{v['ties']}/{v['losses']:<2}  "
            f"{'yes' if v['gain'] else 'no':<4} "
            f"{'ok' if v['within_bound'] else 'WORSE'} (bound {v['bound']:.0%})")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="perfbench_harness built from the parent commit")
    parser.add_argument("change", help="perfbench_harness built from the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]

    parent_runs, change_runs = [], []
    for i in range(args.pairs):
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            order.reverse()
        for side, harness in order:
            try:
                result = run_harness(harness, args.workload, args.seed, args.seconds)
            except RuntimeError as e:
                print(f"perf_pairs: pair {i + 1}: {side}: {e}", file=sys.stderr)
                return 1
            (parent_runs if side == "parent" else change_runs).append(result)
        p, c = parent_runs[-1], change_runs[-1]
        print(f"pair {i + 1:>2} ({order[0][0]} first): "
              + "  ".join(f"{m['name']} {p['end_to_end'][m['name']][0]:.5g} -> "
                          f"{c['end_to_end'][m['name']][0]:.5g}" for m in metrics),
              flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s untraced runs; parent/change median [Q1, Q3], "
          "change wins/ties/losses, gain rule, bound")
    failed = tuple(sum(r["failed"] for r in runs) for runs in (parent_runs, change_runs))
    for m in metrics:
        verdict = judge(m, [r["end_to_end"][m["name"]][0] for r in parent_runs],
                        [r["end_to_end"][m["name"]][0] for r in change_runs], failed)
        print(format_row(verdict))
    print(f"failed operations: parent {failed[0]}, change {failed[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
