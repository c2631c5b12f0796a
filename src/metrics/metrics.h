// Always-on metrics: a process-wide Registry of named counters, gauges and
// log-bucketed histograms, cheap enough to leave enabled in every run.
//
// Relation to src/trace: the Tracer answers "where did the time go in THIS
// run" with a timeline, and is default-off because its buffer grows with
// the run. The metrics Registry answers "how much work of each kind
// happened, and what did the latency distribution look like" in fixed
// memory, and is therefore always on — every benchmark exports a registry
// snapshot next to its figures (bench --json=<file>), which is what makes
// results machine-comparable across revisions (gem5-style stats output).
//
// Cost model: metrics never charge simulated work, so recording cannot
// perturb measured results (same invariant as the tracer). Real-time cost
// per record is one branch plus an array increment for histograms, one add
// for counters.
//
// One sink per counted fact. A count that only the registry keeps caches
// its handle in a function-local static at the call site:
//
//   static metrics::Counter& crossings =
//       metrics::GetCounter("hv.hypervisor.domain_crossings");
//   crossings.Inc();
//
// A count that an object also reports per instance (its stats() or an
// accessor) is a Tally member instead, so one Inc feeds both views:
//
//   metrics::Tally hypercalls_{"hv.hypervisor.hypercalls"};
//   hypercalls_.Inc();
//
// Handles returned by the registry are valid for the process lifetime —
// ResetAll() zeroes values but never invalidates a handle (call sites hold
// static references, tallies a pointer).
//
// Naming convention: `layer.component.metric` (e.g. `xenstore.daemon.ops`,
// `toolstack.chaos.create_ms`). Histograms carry a unit suffix in the name
// (`_ms`, `_gbps`) and optionally a unit string for exporters.
//
// Threading: the simulation is single-threaded, and so is the registry —
// no atomics, no locks. Every value, histogram `sum` included, accumulates
// in event order, so same-seed runs produce identical snapshots.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/time.h"

namespace metrics {

// Monotonically increasing count of events (ops, bytes, pages, ...).
class Counter {
 public:
  void Inc(double delta = 1.0) { value_ += delta; }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

// A value that can go up and down (pool sizes, pages in use, ...).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

// HDR-style log-bucketed histogram: fixed memory, bounded relative error.
//
// Values are bucketed by binary exponent (via frexp, no log() on the hot
// path) with kSubBuckets linear sub-buckets per power of two. Reported
// bucket midpoints are within kMaxRelativeError (= 1/128, ~0.8%) of any
// value in the bucket. Covers [2^-40, 2^40] (~1e-12 .. ~1e12) — everything
// outside lands in saturating under/overflow buckets, and non-positive
// values (including zero durations) land in the underflow bucket.
//
// Unlike lv::Samples (exact quantiles, memory grows with the sample count),
// a Histogram answers quantile queries from ~41 KB regardless of how many
// values were recorded, which is what lets the toolstack keep per-create
// latency distributions for 8000-VM density runs.
class Histogram {
 public:
  static constexpr int kSubBucketsLog2 = 6;
  static constexpr int kSubBuckets = 1 << kSubBucketsLog2;  // 64 per octave
  static constexpr int kMinExp = -40;  // values <= 2^-40 underflow
  static constexpr int kMaxExp = 40;   // values > 2^40 overflow
  static constexpr int kNumRegularBuckets = (kMaxExp - kMinExp) * kSubBuckets;
  // Reported midpoints are within half a bucket width of the true value;
  // bucket width / lower bound <= 1/kSubBuckets.
  static constexpr double kMaxRelativeError = 1.0 / (2 * kSubBuckets);

  explicit Histogram(std::string unit = "") : unit_(std::move(unit)) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(double x);
  void RecordDuration(lv::Duration d) { Record(d.ms()); }

  int64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  const std::string& unit() const { return unit_; }

  // Nearest-rank quantile, q in [0,1]. The result is the midpoint of the
  // bucket holding the rank-round(q*(count-1))-th smallest sample, clamped
  // to [min, max] — within kMaxRelativeError of the exact order statistic.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

  void Reset();

  // Non-empty buckets in ascending value order, for exporters. The
  // underflow bucket reports lo=0; the overflow bucket reports
  // hi=+infinity.
  struct Bucket {
    double lo = 0.0;
    double hi = 0.0;
    int64_t count = 0;
  };
  std::vector<Bucket> NonEmptyBuckets() const;

 private:
  // counts_[0] = underflow, [1..kNumRegularBuckets] = regular,
  // [kNumRegularBuckets+1] = overflow. Allocated lazily on first Record so
  // registered-but-unused histograms stay cheap.
  static int BucketIndex(double x);
  static double BucketLo(int index);
  static double BucketHi(int index);

  std::string unit_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<int64_t> counts_;
};

// A point-in-time copy of every metric's value, detached from the live
// registry (snapshot-then-reset gives per-window deltas).
struct Snapshot {
  struct HistogramValue {
    std::string name;
    std::string unit;
    int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
    std::vector<Histogram::Bucket> buckets;
  };
  std::vector<std::pair<std::string, double>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramValue> histograms;
};

class Registry {
 public:
  static Registry& Get();

  // Finds or creates. References stay valid for the process lifetime; the
  // maps never drop entries (ResetAll only zeroes values).
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name, const std::string& unit = "");

  // Lookup without creating; nullptr if `name` was never registered.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  // Name-ordered iteration for exporters.
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }

  int64_t NumMetrics() const {
    return static_cast<int64_t>(counters_.size() + gauges_.size() + histograms_.size());
  }

  Snapshot TakeSnapshot() const;

  // Zeroes every value; registrations (and outstanding handles) survive.
  void ResetAll();

 private:
  Registry() = default;
  // Handles remain valid because map nodes never move.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

// Shorthand for the call-site caching idiom.
inline Counter& GetCounter(const std::string& name) {
  return Registry::Get().GetCounter(name);
}
inline Gauge& GetGauge(const std::string& name) { return Registry::Get().GetGauge(name); }
inline Histogram& GetHistogram(const std::string& name, const std::string& unit = "") {
  return Registry::Get().GetHistogram(name, unit);
}

// A per-object count and its registry twin of the same name. Several
// objects of one type (the nodes of a cluster, two hosts in one test) each
// keep their own value() while the registry counter sums them. The counter
// is bound on the first Inc, exactly where a function-local static at the
// increment would register: a tally that never moves leaves no registry
// entry, and Inc(0) creates the entry at 0. ResetAll() zeroes only the
// registry side.
class Tally {
 public:
  explicit Tally(const char* name) : name_(name) {}

  void Inc(int64_t delta = 1) {
    if (counter_ == nullptr) {
      Bind();
    }
    value_ += delta;
    counter_->Inc(static_cast<double>(delta));
  }
  int64_t value() const { return value_; }

 private:
  void Bind();  // Out of line: runs once per tally.

  const char* name_;
  Counter* counter_ = nullptr;
  int64_t value_ = 0;
};

}  // namespace metrics
