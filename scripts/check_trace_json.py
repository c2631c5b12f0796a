#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON file produced by the trace subsystem.

Checks that the file parses as JSON, that begin/end span events pair up and
nest properly per track, that timestamps are monotonically non-decreasing
(both globally — events are recorded in simulated-time order — and per track),
and that flow events (causal operation arcs) are well-formed: every flow id
starts with exactly one "s", ends with exactly one "f", has only "t" steps in
between, and never dangles (a flow id with a start but no finish, or vice
versa, would render as a broken arrow in Perfetto). The trace carries spans,
instants and flows only: a counter ("C") event fails the check, because
counts live in the metrics registry, not in the trace.

Usage:
  check_trace_json.py trace.json ...        validate existing file(s)
  check_trace_json.py --cli <chaos_cli>     run chaos_cli --trace-out and
                                            validate what it writes
  check_trace_json.py --run <cmd> [arg...]  run any command that accepts a
                                            --trace-out=<path> flag (appended
                                            automatically; e.g.
                                            --run scenario_runner spec.json)
                                            and validate what it writes

The --cli and --run forms are registered as ctests so the end-to-end path
(instrumented control plane -> exporter -> loadable JSON) stays green.
"""

import argparse
import json
import subprocess
import sys
import tempfile
import os


def fail(msg):
    print("FAIL: %s" % msg)
    sys.exit(1)


def validate(path, min_flows=0):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail("%s: %s" % (path, e))

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("%s: no traceEvents array" % path)

    prev_ts = None
    per_track_prev = {}
    open_spans = {}  # tid -> stack of (name, ts)
    flows = {}  # flow id -> list of phases in file order
    counts = {"B": 0, "E": 0, "i": 0, "M": 0, "s": 0, "t": 0, "f": 0}

    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in counts:  # "C" included: counts live in the registry
            fail("%s: event %d has unknown phase %r" % (path, i, ph))
        counts[ph] += 1
        if ph == "M":
            continue  # Metadata carries no timestamp.

        ts = ev.get("ts")
        tid = ev.get("tid")
        name = ev.get("name")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail("%s: event %d (%r) has bad ts %r" % (path, i, name, ts))
        if prev_ts is not None and ts < prev_ts:
            fail("%s: event %d (%r) ts %.3f < previous %.3f — not "
                 "monotonic" % (path, i, name, ts, prev_ts))
        prev_ts = ts
        if tid in per_track_prev and ts < per_track_prev[tid]:
            fail("%s: event %d (%r) goes back in time on track %s" %
                 (path, i, name, tid))
        per_track_prev[tid] = ts

        if ph in ("s", "t", "f"):
            flow_id = ev.get("id")
            if not isinstance(flow_id, int):
                fail("%s: flow event %d (%r) has bad id %r" %
                     (path, i, name, flow_id))
            if ph == "f" and ev.get("bp") != "e":
                fail("%s: flow event %d (%r) finishes without bp=e — "
                     "Perfetto would not bind it to the enclosing slice" %
                     (path, i, name))
            flows.setdefault(flow_id, []).append(ph)

        if ph == "B":
            open_spans.setdefault(tid, []).append((name, ts))
        elif ph == "E":
            stack = open_spans.get(tid)
            if not stack:
                fail("%s: event %d ends %r on track %s with no open span" %
                     (path, i, name, tid))
            open_name, open_ts = stack.pop()
            if open_name != name:
                fail("%s: event %d ends %r but innermost open span on track "
                     "%s is %r — spans cross" % (path, i, name, tid, open_name))
            if ts < open_ts:
                fail("%s: span %r on track %s ends before it begins" %
                     (path, name, tid))

    leftovers = {tid: stack for tid, stack in open_spans.items() if stack}
    if leftovers:
        fail("%s: unclosed spans at end of trace: %r" % (path, leftovers))
    if counts["B"] != counts["E"]:
        fail("%s: %d begin events vs %d end events" %
             (path, counts["B"], counts["E"]))
    if counts["B"] == 0:
        fail("%s: no spans recorded" % path)
    for flow_id, phases in flows.items():
        if phases[0] != "s":
            fail("%s: flow %d does not start with 's' (got %r)" %
                 (path, flow_id, phases))
        if phases[-1] != "f":
            fail("%s: flow %d dangles — no finishing 'f' (got %r)" %
                 (path, flow_id, phases))
        if phases.count("s") != 1 or phases.count("f") != 1:
            fail("%s: flow %d has %d starts / %d finishes (want exactly 1 "
                 "each)" % (path, flow_id, phases.count("s"),
                            phases.count("f")))
        if any(p != "t" for p in phases[1:-1]):
            fail("%s: flow %d has non-step phases between s and f: %r" %
                 (path, flow_id, phases))
    if len(flows) < min_flows:
        fail("%s: only %d flows recorded, expected >= %d — causal op "
             "propagation is broken somewhere in the control plane" %
             (path, len(flows), min_flows))

    print("OK: %s (%d events: %d spans, %d instants, %d flows)" %
          (path, len(events), counts["B"], counts["i"], len(flows)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*", help="trace JSON files to validate")
    parser.add_argument("--cli", help="path to chaos_cli; generates a trace first")
    parser.add_argument("--min-flows", type=int, default=0,
                        help="fail unless at least this many distinct flow "
                        "ids appear (cross-layer causal arcs)")
    parser.add_argument("--run", nargs=argparse.REMAINDER,
                        help="command to run with --trace-out=<tmp> appended; "
                        "consumes the rest of the argv")
    args = parser.parse_args()
    if not args.files and not args.cli and not args.run:
        parser.error("give trace files, --cli, and/or --run")

    for path in args.files:
        validate(path, args.min_flows)

    if args.run:
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "trace.json")
            proc = subprocess.run(args.run + ["--trace-out=%s" % out],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT)
            if proc.returncode != 0:
                fail("%s exited %d:\n%s" %
                     (" ".join(args.run), proc.returncode,
                      proc.stdout.decode()))
            validate(out, args.min_flows)

    if args.cli:
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "trace.json")
            cmd = [args.cli, "--trace-out=%s" % out,
                   "create web0 daytime", "create web1 daytime", "list",
                   "save web0", "restore web0", "destroy web0", "quit"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT)
            if proc.returncode != 0:
                fail("%s exited %d:\n%s" %
                     (args.cli, proc.returncode, proc.stdout.decode()))
            validate(out)


if __name__ == "__main__":
    main()
