// The three seeded workloads. Each repetition builds its topology from
// scratch, reaches its plateau (set-up), runs a fixed, seed-generated
// closed-loop operation stream (the timed region), then retires everything
// and checks the invariants. A repetition's simulated outcome depends only
// on the seed, so every repetition of a run yields the same digest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/bench.h"
#include "harness/ladder.h"

namespace perfbench {

// Present only in traced repetitions.
struct TraceHooks {
  SpanLog* spans = nullptr;
  Ladder* ladder = nullptr;
  int64_t ladder_every = 0;  // operations between ladder batches
};

struct RepResult {
  double setup_s = 0;
  double timed_s = 0;   // host seconds driving the op stream (ladder excluded)
  double sim_s = 0;     // simulated seconds the op stream spans
  int64_t ops = 0;
  int64_t op_errors = 0;  // operations whose simulated result was an error
  // Host us from issuing an operation to its completion (untraced only).
  int64_t samples = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t digest = 0;
  std::string check_error;  // empty when every invariant held
  LadderShape shape;        // the plateau, for the side instances

  // Traced repetitions only.
  Counters delta;  // public counters over the timed region, ladder excluded
  int64_t queue_peak = 0;
  int64_t creates = 0;      // operations that create a VM (deploy, create, migrate)
  int64_t destroys = 0;     // operations that destroy one (retire, destroy, migrate)
  int64_t cluster_ops = 0;  // operations issued through cluster::Cluster
  int64_t faults_injected = 0;
};

const std::vector<std::string>& WorkloadNames();
// Simulated callers of the workload (closed loop).
int Callers(const std::string& workload);
// Fixed length of the workload's operation stream per repetition.
int64_t OpsPerRep(const std::string& workload);

RepResult RunRep(const std::string& workload, uint64_t seed, TraceHooks* trace);

}  // namespace perfbench
