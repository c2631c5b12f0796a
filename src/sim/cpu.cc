#include "src/sim/cpu.h"

#include <algorithm>

namespace sim {

namespace {
// Jobs whose remaining work dips below this are considered complete; protects
// against floating-point drift starving the completion loop.
constexpr double kEpsilonNs = 0.5;
}  // namespace

CpuScheduler::CpuScheduler(Engine* engine, int num_cores) : engine_(engine) {
  LV_CHECK(num_cores > 0);
  cores_.resize(static_cast<size_t>(num_cores));
  for (Core& core : cores_) {
    core.last_update = engine_->now();
    core.next_completion = Timer(engine_, [this, &core] { return OnCompletion(core); });
  }
  window_start_ = engine_->now();
}

int CpuScheduler::ActiveJobs(int core) const {
  LV_CHECK(core >= 0 && core < num_cores());
  return static_cast<int>(cores_[static_cast<size_t>(core)].active.size());
}

Duration CpuScheduler::ConsumedBy(CpuOwner owner) const {
  if (owner < 0 || static_cast<size_t>(owner) >= consumed_ns_.size()) {
    return Duration();
  }
  return Duration::Nanos(static_cast<int64_t>(consumed_ns_[static_cast<size_t>(owner)]));
}

double* CpuScheduler::ConsumedSlot(CpuOwner owner) {
  LV_CHECK(owner >= 0);
  const size_t index = static_cast<size_t>(owner);
  if (index >= consumed_ns_.size()) {
    consumed_ns_.resize(index + 1, 0.0);
  }
  return &consumed_ns_[index];
}

Duration CpuScheduler::BusyTime(int core) const {
  LV_CHECK(core >= 0 && core < num_cores());
  return Duration::Nanos(static_cast<int64_t>(cores_[static_cast<size_t>(core)].busy_ns));
}

void CpuScheduler::StartWindow() {
  // Charge pending time first so the window starts clean.
  for (size_t i = 0; i < cores_.size(); ++i) {
    Advance(cores_[i]);
    cores_[i].window_busy_ns = 0.0;
  }
  window_start_ = engine_->now();
}

double CpuScheduler::WindowUtilization() const {
  Duration span = engine_->now() - window_start_;
  if (span.ns() <= 0) {
    return 0.0;
  }
  double busy = 0.0;
  for (const Core& core : cores_) {
    double b = core.window_busy_ns;
    // Include time accrued since the core's last bookkeeping update.
    if (!core.active.empty()) {
      b += static_cast<double>((engine_->now() - core.last_update).ns());
    }
    busy += b;
  }
  return busy / (static_cast<double>(span.ns()) * static_cast<double>(cores_.size()));
}

void CpuScheduler::Advance(Core& core) {
  TimePoint now = engine_->now();
  double elapsed = static_cast<double>((now - core.last_update).ns());
  core.last_update = now;
  if (elapsed <= 0.0 || core.active.empty()) {
    return;
  }
  double share = elapsed / static_cast<double>(core.active.size());
  for (Job& job : core.active) {
    job.remaining_ns -= share;
    *job.consumed_ns += share;
  }
  core.busy_ns += elapsed;
  core.window_busy_ns += elapsed;
}

void CpuScheduler::Reschedule(Core& core) {
  if (core.active.empty()) {
    core.next_completion.Disarm();
    return;
  }
  double min_remaining = core.active[0].remaining_ns;
  for (const Job& job : core.active) {
    min_remaining = std::min(min_remaining, job.remaining_ns);
  }
  double delay_ns = std::max(1.0, min_remaining * static_cast<double>(core.active.size()));
  core.next_completion.Arm(Duration::Nanos(static_cast<int64_t>(delay_ns)));
}

std::coroutine_handle<> CpuScheduler::OnCompletion(Core& core) {
  Advance(core);
  done_.clear();
  auto it = core.active.begin();
  while (it != core.active.end()) {
    if (it->remaining_ns <= kEpsilonNs) {
      done_.push_back(it->handle);
      it = core.active.erase(it);
    } else {
      ++it;
    }
  }
  Reschedule(core);
  // A lone finisher goes back to the engine, which wakes it once this
  // callback has returned: the job may destroy this scheduler.
  if (done_.size() == 1) {
    return done_.front();
  }
  for (std::coroutine_handle<> h : done_) {
    engine_->Schedule(Duration(), h);
  }
  return nullptr;
}

void CpuScheduler::Submit(int core_idx, Duration work, CpuOwner owner,
                          std::coroutine_handle<> h) {
  LV_CHECK(core_idx >= 0 && core_idx < num_cores());
  Core& core = cores_[static_cast<size_t>(core_idx)];
  Advance(core);
  core.active.push_back(Job{static_cast<double>(work.ns()), ConsumedSlot(owner), h});
  Reschedule(core);
}

}  // namespace sim
