// Per-core processor-sharing CPU model.
//
// Every piece of CPU work in the simulation — toolstack phases in Dom0, the
// XenStore daemon, guest boot work, guest background services, container
// runtime work — is submitted as a job to a core of a CpuScheduler. Each core
// runs its active jobs under processor sharing (each of n active jobs
// progresses at rate 1/n), which is a good fluid approximation of the Xen
// credit scheduler / Linux CFS at the timescales the paper measures. CPU
// contention effects (e.g. Tinyx boot times growing with the number of
// running VMs, Figure 11) are emergent from this model.
//
// The scheduler also keeps the accounting the paper's tooling exposes:
// per-core busy time (iostat) and per-owner consumed time (xentop).
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/base/time.h"
#include "src/sim/engine.h"
#include "src/trace/trace.h"

namespace sim {

// Owner tag for CPU accounting: 0 = Dom0 / host, >0 = domain id.
using CpuOwner = int64_t;
inline constexpr CpuOwner kHostOwner = 0;

class CpuScheduler {
 public:
  CpuScheduler(Engine* engine, int num_cores);
  CpuScheduler(const CpuScheduler&) = delete;
  CpuScheduler& operator=(const CpuScheduler&) = delete;

  int num_cores() const { return static_cast<int>(cores_.size()); }
  Engine* engine() { return engine_; }

  // Awaitable: consume `work` of CPU time on `core`, sharing the core with
  // whatever else is active there. Zero (or negative) work completes
  // immediately.
  struct RunAwaiter {
    CpuScheduler* sched;
    int core;
    Duration work;
    CpuOwner owner;

    bool await_ready() const noexcept { return work.ns() <= 0; }
    void await_suspend(std::coroutine_handle<> h) { sched->Submit(core, work, owner, h); }
    void await_resume() const noexcept {}
  };
  RunAwaiter Run(int core, Duration work, CpuOwner owner = kHostOwner) {
    return RunAwaiter{this, core, work, owner};
  }

  int ActiveJobs(int core) const;

  // --- Accounting ---------------------------------------------------------

  // Total CPU time consumed by `owner` across all cores since construction.
  Duration ConsumedBy(CpuOwner owner) const;
  // Wall time core `core` spent non-idle since construction.
  Duration BusyTime(int core) const;
  // Machine-wide utilization (0..1) over [window_start, now]; call
  // StartWindow() first.
  void StartWindow();
  double WindowUtilization() const;

 private:
  struct Job {
    double remaining_ns;
    // The owner's consumed time (ConsumedSlot; it never moves).
    double* consumed_ns;
    std::coroutine_handle<> handle;
  };
  struct Core {
    std::vector<Job> active;
    TimePoint last_update;
    // Armed while jobs are active, for when the first of them finishes.
    Timer next_completion;
    double busy_ns = 0.0;
    double window_busy_ns = 0.0;
  };

  void Submit(int core_idx, Duration work, CpuOwner owner, std::coroutine_handle<> h);
  // Charges elapsed time to the active jobs of `core` up to `now`.
  void Advance(Core& core);
  // Re-keys (or, when idle, disarms) the core's next-completion timer.
  void Reschedule(Core& core);
  // Retires the core's finished jobs; returns the one to wake when exactly
  // one finished, and schedules the wake-ups itself otherwise.
  std::coroutine_handle<> OnCompletion(Core& core);
  // Where `owner`'s consumed time accumulates.
  double* ConsumedSlot(CpuOwner owner);

  Engine* engine_;
  // Sized once, so an armed completion timer never moves.
  std::vector<Core> cores_;
  // OnCompletion's finished jobs, kept to reuse the allocation.
  std::vector<std::coroutine_handle<>> done_;
  // Consumed time per owner. Domain ids are dense per host, so owners index
  // a deque, whose elements stay put as it grows.
  std::deque<double> consumed_ns_;
  TimePoint window_start_;
};

// Execution context: which core a control-plane coroutine is running on and
// which owner its CPU time is billed to. Passed down through toolstack ->
// store -> driver call chains so every microsecond lands on the right core.
// It also carries the trace track (row) that spans opened along the chain
// record onto, so one VM creation yields one coherent span tree even while
// other coroutines interleave.
struct ExecCtx {
  CpuScheduler* cpu = nullptr;
  int core = 0;
  CpuOwner owner = kHostOwner;
  trace::TrackId track = trace::kHostTrack;
  // Control-plane job id (0 = not part of an async job). Threaded into trace
  // track names so overlapping lifecycle jobs land on distinct rows.
  int64_t job = 0;
  // Causal operation identity (src/obs): the op this chain executes under
  // and the root of its causal chain (the exported flow id). Zero when the
  // chain is not part of a tracked operation. Plain ints so lv_sim stays
  // decoupled from lv_obs; obs::OpRef is the minting-side view.
  int64_t op = 0;
  int64_t op_root = 0;
  // Cluster node the chain runs on (flight-recorder ring index; 0 for
  // single-host runs).
  int node = 0;

  CpuScheduler::RunAwaiter Work(Duration d) const { return cpu->Run(core, d, owner); }
  ExecCtx As(CpuOwner o) const { return ExecCtx{cpu, core, o, track, job, op, op_root, node}; }
  ExecCtx OnTrack(trace::TrackId t) const {
    return ExecCtx{cpu, core, owner, t, job, op, op_root, node};
  }
  ExecCtx WithJob(int64_t j) const { return ExecCtx{cpu, core, owner, track, j, op, op_root, node}; }
  ExecCtx WithOp(int64_t o, int64_t root) const {
    return ExecCtx{cpu, core, owner, track, job, o, root, node};
  }
};

// Round-robin core placement helper mirroring the paper's experimental setup
// ("one core assigned to Dom0 and the remaining three assigned to the VMs in
// a round-robin fashion").
class CorePlacer {
 public:
  // Cores [first_guest_core, num_cores) host guests; cores below it are Dom0.
  CorePlacer(int num_cores, int first_guest_core)
      : num_cores_(num_cores), first_(first_guest_core), next_(first_guest_core) {
    LV_CHECK(first_guest_core >= 0 && first_guest_core < num_cores);
  }

  int NextGuestCore() {
    int core = next_;
    next_ = next_ + 1 >= num_cores_ ? first_ : next_ + 1;
    return core;
  }
  // Dom0 work is spread across its dedicated cores.
  int NextDom0Core() {
    if (first_ == 0) {
      return 0;  // No dedicated Dom0 core configured; share core 0.
    }
    int core = next_dom0_;
    next_dom0_ = next_dom0_ + 1 >= first_ ? 0 : next_dom0_ + 1;
    return core;
  }
  int num_guest_cores() const { return num_cores_ - first_; }
  int num_dom0_cores() const { return first_ == 0 ? 1 : first_; }

 private:
  int num_cores_;
  int first_;
  int next_;
  int next_dom0_ = 0;
};

}  // namespace sim
