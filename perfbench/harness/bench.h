// Shared pieces of the host-cost harness: the host clock, the outcome
// digest, the in-memory span log and the public-counter readings that the
// traced run differences.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/engine.h"

namespace perfbench {

// Host time in nanoseconds (steady clock). Simulated time never enters a
// metric; it only feeds the digest.
inline int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// FNV-1a over the simulated outcome of one repetition. Same seed, same
// program behaviour => same digest, independent of host speed.
class Digest {
 public:
  void Add(int64_t v) {
    uint64_t u = static_cast<uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h_ ^= (u >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void Add(std::string_view s) {
    Add(static_cast<int64_t>(s.size()));
    for (char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

std::string Hex(uint64_t v);

// Bounds on one drive call. A healthy repetition needs a few simulated
// minutes (xl_store's Tinyx boots) and a few host seconds; an operation
// that never completes (a program defect) must fail the run, not hang it.
inline constexpr lv::Duration kSimHorizon = lv::Duration::Seconds(3600);
inline constexpr int64_t kHostDeadlineNs = 30'000'000'000;

// Steps `engine` until `done()`. False when the queue drains or either
// bound passes first.
template <typename Pred>
bool Drive(sim::Engine& engine, Pred&& done) {
  const lv::TimePoint sim_deadline = engine.now() + kSimHorizon;
  const int64_t host_deadline = HostNs() + kHostDeadlineNs;
  for (uint64_t steps = 1; !done(); ++steps) {
    if (engine.now() >= sim_deadline || !engine.Step() ||
        (steps % 4096 == 0 && HostNs() > host_deadline)) {
      return done();
    }
  }
  return true;
}

// Runs `co` to completion under Drive's bounds; nullopt if it never ends.
// The result slot is shared with the coroutine frame, which may outlive
// this call when the operation hangs.
template <typename T>
std::optional<T> DriveTo(sim::Engine& engine, sim::Co<T> co) {
  auto out = std::make_shared<std::optional<T>>();
  engine.Spawn([](sim::Co<T> c, std::shared_ptr<std::optional<T>> o) -> sim::Co<void> {
    *o = co_await std::move(c);
  }(std::move(co), out));
  Drive(engine, [&] { return out->has_value(); });
  return *out;
}

// DriveTo for coroutines without a result: true when `co` completed.
inline bool DriveTo(sim::Engine& engine, sim::Co<void> co) {
  auto done = std::make_shared<bool>(false);
  engine.Spawn([](sim::Co<void> c, std::shared_ptr<bool> d) -> sim::Co<void> {
    co_await std::move(c);
    *d = true;
  }(std::move(co), done));
  Drive(engine, [&] { return *done; });
  return *done;
}

// Host-time spans around every call the harness makes into the library
// during a traced run: each top-level operation, each engine drive call,
// each ladder probe. Records stay in memory (the first kMaxRecords of them;
// per-name totals cover all) and are written once, at exit, as a Chrome
// trace_event file. `lane` becomes the trace row: concurrent operations get
// one row per simulated caller so overlapping spans never share a row.
class SpanLog {
 public:
  static constexpr size_t kMaxRecords = 50000;

  struct Handle {
    int64_t id = 0;
    int64_t parent = 0;
    const char* name = "";
    const char* parent_name = nullptr;
    int lane = 0;
    int64_t start_ns = 0;
  };
  struct Total {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t child_ns = 0;  // covered by child spans; self = total - child
  };

  Handle Begin(const char* name, int lane, const Handle* parent = nullptr);
  void End(const Handle& h);

  const std::map<std::string, Total>& totals() const { return totals_; }
  int64_t spans() const { return next_id_ - 1; }
  bool Write(const std::string& path, const std::string& metadata_json) const;

 private:
  struct Record {
    int64_t id;
    int64_t parent;
    const char* name;
    int lane;
    int64_t start_ns;
    int64_t end_ns;
  };
  int64_t next_id_ = 1;
  int64_t origin_ns_ = 0;
  std::vector<Record> records_;
  std::map<std::string, Total> totals_;
};

// Readings of the public counters the traced run differences per rep. All
// but kEvents come from the metrics registry, which side instances of the
// ladder also bump, so the caller subtracts each ladder batch's delta.
enum CounterId {
  kEvents,  // main Engine::processed_events
  kHypercalls,
  kPagesPopulated,
  kXsOps,
  kXsWatchEvents,
  kXsTxCommits,
  kXsTxRetries,
  kXsRestarts,
  kAttaches,
  kBashRuns,
  kXendevdRuns,
  kPoolHits,
  kPoolMisses,
  kShellsBuilt,
  kJobsStarted,
  kJobsFailed,
  kLinkSends,
  kAdmissionRejects,
  kDeployRetries,
  kReplacements,
  kVmsLost,
  kVmsRecovered,
  kNumCounters,
};

struct Counters {
  double v[kNumCounters] = {};

  // `engine` may be null (ladder batches: the main engine does not move).
  static Counters Read(const sim::Engine* engine);
  double operator[](CounterId id) const { return v[id]; }
  Counters& operator+=(const Counters& o) {
    for (int i = 0; i < kNumCounters; ++i) {
      v[i] += o.v[i];
    }
    return *this;
  }
  Counters operator-(const Counters& o) const {
    Counters out = *this;
    for (int i = 0; i < kNumCounters; ++i) {
      out.v[i] -= o.v[i];
    }
    return out;
  }
};

double Median(std::vector<double> v);
// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);

}  // namespace perfbench
