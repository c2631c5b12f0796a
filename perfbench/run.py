#!/usr/bin/env python3
"""Host-cost benchmark of the simulated control plane.

    python3 perfbench/run.py --workload fleet_churn|xl_store|chaos_heal \
        --seed N --seconds S --trace 0|1

Builds the harness (perfbench/CMakeLists.txt, which compiles the library
from src/) into .bench_build/perfbench, runs one workload in its own process,
checks the outcome against the recorded digests, and prints the harness's
report followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 its per_layer list, and the host-time spans are written to
.bench_build/traces/<workload>-seed<N>.json. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD_DIR / "perfbench_harness"
# A run must end within 180 s once the harness is built; the harness caps
# its own repetitions well below this.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness; returns False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_harness",
         "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def expected_digest(path, workload, seed):
    with open(path, encoding="utf-8") as f:
        recorded = json.load(f)
    return recorded.get(workload, {}).get(str(seed))


def select_metrics(spec_metrics, produced):
    """Maps the harness's values onto the spec's names, checking units.

    Returns (metrics, problems): every spec metric must be produced with the
    spec's unit, and the harness may produce nothing the spec lacks.
    """
    metrics, problems = {}, []
    for m in spec_metrics:
        name, unit = m["name"], m["unit"]
        if name not in produced:
            problems.append(f"metric {name} not produced")
            continue
        value, got_unit = produced[name]
        if got_unit != unit:
            problems.append(f"metric {name}: unit {got_unit} != {unit}")
        metrics[name] = {"value": value, "unit": unit}
    extra = sorted(set(produced) - {m["name"] for m in spec_metrics})
    problems += [f"metric {name} missing from BENCHMARK.json" for name in extra]
    return metrics, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--digests", default=str(BENCH_DIR / "expected_digests.json"),
                        help="recorded digests (workload -> seed -> hex)")
    args = parser.parse_args()

    if not build():
        return 1
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"perfbench: unknown workload {args.workload}")
        return 2

    cmd = [str(HARNESS), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
    expect = expected_digest(args.digests, args.workload, args.seed)
    if expect:
        cmd += ["--expect", expect]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]

    start = time.monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log(f"perfbench: harness exceeded {RUN_TIMEOUT_S}s")
            return 1
    if proc.returncode != 0:
        log(f"perfbench: harness exited with {proc.returncode}")
        return 1
    lines = out.rstrip("\n").split("\n")
    report = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    fingerprint = report["fingerprint"]
    if not fingerprint["comparable"]:
        log("perfbench: WARNING: not comparable (build type "
            f"{fingerprint['build_type']}, sanitizers {fingerprint['sanitizers']})")
    section = "per_layer" if args.trace else "end_to_end"
    metrics, problems = select_metrics(spec[section], report[section])
    if problems:
        for p in problems:
            log("perfbench: " + p)
        return 1

    print(f"run.py: harness wall {time.monotonic() - start:.1f}s, "
          f"expected digest {expect or '(not recorded)'}")
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
