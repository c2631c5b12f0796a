// Container and process baselines (Docker 1.13 and plain fork/exec in the
// paper's figures 4, 10, 11, 14, 15).
//
// The Docker model reproduces the observed behaviours rather than wrapping a
// real daemon: ~150-200 ms cold starts dominated by layered-filesystem and
// namespace setup, per-container daemon bookkeeping that grows with the
// number of instances, and daemon memory that jumps in large allocation
// steps — "the spikes in that curve coincide with large jumps in memory
// consumption, and we stop at about 3,000 because after that the next large
// memory allocation consumes all available memory" (§6.1).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/hv/memory.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"

namespace container {

struct ContainerImage {
  std::string name;
  int layers = 4;           // filesystem layers to mount
  lv::Bytes memory = lv::Bytes::MiB(5);  // resident set of the container
  lv::Duration app_start_cpu = lv::Duration::Millis(5);
};

// Docker's Micropython image (the Figure 14 comparison point: ~5 GB for
// 1000 containers).
ContainerImage MicropythonContainer();
// A minimal busybox-style container.
ContainerImage MinimalContainer();

struct Costs {
  // Fixed path through dockerd + containerd + runc.
  lv::Duration daemon_base = lv::Duration::Millis(40);
  // Overlay mount per image layer.
  lv::Duration per_layer_setup = lv::Duration::Millis(14);
  // Namespaces, cgroups, veth pair, iptables.
  lv::Duration namespace_setup = lv::Duration::Millis(50);
  // Daemon bookkeeping that scales with the number of running containers.
  lv::Duration per_container_overhead = lv::Duration::Micros(100);
  // Daemon arena: grows in power-of-two steps of this unit; the doubling
  // allocations cause the latency spikes.
  lv::Bytes daemon_arena_unit = lv::Bytes::MiB(1);
  // Kernel-object overhead (dentries, overlay writable layers, page cache)
  // grows super-linearly with container count: the i-th container costs an
  // extra (i/knee)^2 MiB. This is the memory wall that stops Docker around
  // 3000 containers on a 128 GB machine (Figure 10).
  double kernel_overhead_knee = 400.0;
  // Containers covered by the daemon's initial arena (no growth stall until
  // the count exceeds this).
  int64_t initial_arena_containers = 64;
  // Stall while the daemon grows + rehashes its arena.
  lv::Duration arena_growth_stall = lv::Duration::Millis(700);

  // fork/exec baseline: "3.5ms on average (9ms at the 90% percentile)".
  lv::Duration fork_exec_median = lv::Duration::MillisF(2.9);
  double fork_exec_sigma = 0.85;
  lv::Bytes process_memory = lv::Bytes::MiB(1);
};

class DockerRuntime {
 public:
  struct Stats {
    int64_t started = 0;
    int64_t oom_failures = 0;
    int64_t arena_growths = 0;
  };

  DockerRuntime(sim::Engine* engine, hv::MemoryPool* host_memory, Costs costs = Costs());

  // Creates and starts a container ("docker run"); returns its id.
  sim::Co<lv::Result<int64_t>> Run(sim::ExecCtx ctx, ContainerImage image);

  int64_t count() const { return static_cast<int64_t>(containers_.size()); }
  // Containers' resident memory + the daemon arena.
  lv::Bytes MemoryUsed() const;
  const Stats& stats() const { return stats_; }

 private:
  // Pages the daemon arena needs for `count` containers.
  int64_t ArenaPages(int64_t count) const;

  sim::Engine* engine_;
  hv::MemoryPool* host_memory_;
  Costs costs_;
  struct Record {
    ContainerImage image;
    int64_t reserved_pages = 0;
  };
  std::unordered_map<int64_t, Record> containers_;
  int64_t next_id_ = 1;
  int64_t arena_pages_ = 0;
  Stats stats_;
};

// Plain-process baseline: fork/exec with the measured latency distribution;
// creation time independent of the number of existing processes.
class ProcessRuntime {
 public:
  ProcessRuntime(sim::Engine* engine, hv::MemoryPool* host_memory, Costs costs = Costs());

  sim::Co<lv::Result<int64_t>> ForkExec(sim::ExecCtx ctx);

  int64_t count() const { return count_; }
  lv::Bytes MemoryUsed() const;

 private:
  sim::Engine* engine_;
  hv::MemoryPool* host_memory_;
  Costs costs_;
  lv::Rng rng_;
  int64_t next_pid_ = 1000;
  int64_t count_ = 0;
};

}  // namespace container
