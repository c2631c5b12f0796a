// Executes a scenario::Spec over the same control plane the dedicated
// benchmark binaries drive: plain Hosts for single-node workloads, the
// cluster control plane (placement + admission + concurrent jobs) for
// fleet-deploy.
//
// Determinism contract: a spec plus its seed fully determines the run.
// Every engine the runner creates is seeded from the spec, all randomness
// (churn decisions) comes from a scenario-owned lv::Rng, and the printed
// tables contain only simulated quantities — so same-seed runs are
// byte-identical (enforced by tests/scenario_test.cc). Wall-clock never
// leaks into the output.
//
// Output sinks compose rather than interfere:
//  * the printed tables go to the caller's ostream (stdout for the CLI),
//  * every full-resolution data point is offered to `point_fn` (the
//    scenario_runner binary wires this to bench::Report for BENCH_*.json),
//  * `trace_out` records a Chrome trace_event file via src/trace,
//  * `metrics_out` snapshots the always-on src/metrics registry.
//
// Workloads that boot several independent series (sequential-boots) create
// a fresh engine per series, exactly like the fig* binaries do; with
// tracing enabled the tracer's clock is re-based at each engine epoch
// (trace::Tracer::BeginEpoch) so the written file keeps every epoch in one
// monotonic time domain.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "src/base/result.h"
#include "src/scenario/spec.h"

namespace scenario {

struct RunOptions {
  std::string trace_out;    // Chrome trace_event JSON ("" = no trace)
  std::string metrics_out;  // metrics-registry snapshot JSON ("" = none)
  std::string flight_out;   // flight-recorder dump written on failure ("" = none)
  // Evaluate the spec's `slo` section after the workload and fail the run on
  // any violation. Off by default so plain runs (and committed baselines)
  // stay byte-identical whether or not a spec carries SLOs.
  bool enforce_slo = false;
};

// Receives every recorded data point: a series name plus named columns in a
// fixed order (the first point of a series fixes its columns).
using PointFn = std::function<void(
    const std::string& series,
    const std::vector<std::pair<std::string, double>>& row)>;

// Runs the scenario to completion. Table output goes to `out`; `point_fn`
// may be null. A fleet-deploy run with faults reads its recovery ledger only
// after every planned fault has fired and every lost VM is booked. Fails
// (without exiting) when the workload cannot complete — a stalled fleet, a
// create storm that deadlocks, a recovery that never drains — so callers
// decide how loud to be.
lv::Status Run(const Spec& spec, const RunOptions& options, std::ostream& out,
               PointFn point_fn = nullptr);

}  // namespace scenario
