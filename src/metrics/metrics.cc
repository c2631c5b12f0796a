#include "src/metrics/metrics.h"

#include <algorithm>
#include <limits>

#include "src/base/assert.h"

namespace metrics {

namespace {
// Total array size: underflow + regular + overflow.
constexpr int kTotalBuckets = Histogram::kNumRegularBuckets + 2;
constexpr int kOverflowIndex = Histogram::kNumRegularBuckets + 1;
}  // namespace

int Histogram::BucketIndex(double x) {
  if (!(x > 0.0)) {
    return 0;  // zero, negative and NaN all underflow
  }
  int exp = 0;
  double mant = std::frexp(x, &exp);  // x = mant * 2^exp, mant in [0.5, 1)
  if (exp <= kMinExp) {
    return 0;
  }
  if (exp > kMaxExp) {
    return kOverflowIndex;
  }
  int sub = static_cast<int>((mant - 0.5) * (2 * kSubBuckets));
  sub = std::min(sub, kSubBuckets - 1);  // guard mant rounding up to 1.0
  return (exp - kMinExp - 1) * kSubBuckets + sub + 1;
}

double Histogram::BucketLo(int index) {
  if (index == 0) {
    return 0.0;
  }
  if (index == kOverflowIndex) {
    return std::ldexp(1.0, kMaxExp);
  }
  int exp = kMinExp + 1 + (index - 1) / kSubBuckets;
  int sub = (index - 1) % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, exp - 1);
}

double Histogram::BucketHi(int index) {
  if (index == 0) {
    return std::ldexp(1.0, kMinExp);
  }
  if (index == kOverflowIndex) {
    return std::numeric_limits<double>::infinity();
  }
  int exp = kMinExp + 1 + (index - 1) / kSubBuckets;
  int sub = (index - 1) % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets, exp - 1);
}

void Histogram::Record(double x) {
  if (counts_.empty()) {
    counts_.assign(kTotalBuckets, 0);
  }
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  ++counts_[static_cast<size_t>(BucketIndex(x))];
}

double Histogram::Quantile(double q) const {
  LV_CHECK(q >= 0.0 && q <= 1.0);
  if (count_ == 0) {
    return 0.0;
  }
  // Nearest-rank: which sample (0-based, by value order) are we asking for?
  int64_t rank = static_cast<int64_t>(q * static_cast<double>(count_ - 1) + 0.5);
  int64_t seen = 0;
  for (int i = 0; i < kTotalBuckets; ++i) {
    int64_t c = counts_[static_cast<size_t>(i)];
    if (c == 0) {
      continue;
    }
    seen += c;
    if (seen > rank) {
      double mid;
      if (i == 0) {
        mid = min_;  // underflow: only non-positive / tiny values
      } else if (i == kOverflowIndex) {
        mid = max_;
      } else {
        mid = (BucketLo(i) + BucketHi(i)) / 2.0;
      }
      return std::clamp(mid, min_, max_);
    }
  }
  return max_;  // unreachable if counts_ is consistent with count_
}

void Histogram::Reset() {
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
  counts_.clear();
}

std::vector<Histogram::Bucket> Histogram::NonEmptyBuckets() const {
  std::vector<Bucket> out;
  if (count_ == 0) {
    return out;
  }
  for (int i = 0; i < kTotalBuckets; ++i) {
    int64_t c = counts_[static_cast<size_t>(i)];
    if (c != 0) {
      out.push_back(Bucket{BucketLo(i), BucketHi(i), c});
    }
  }
  return out;
}

Registry& Registry::Get() {
  static Registry* registry = new Registry();
  return *registry;
}

Counter& Registry::GetCounter(const std::string& name) {
  return counters_[name];
}

Gauge& Registry::GetGauge(const std::string& name) {
  return gauges_[name];
}

Histogram& Registry::GetHistogram(const std::string& name, const std::string& unit) {
  // try_emplace constructs in place — Histogram is non-copyable and
  // handles must never be invalidated anyway.
  return histograms_.try_emplace(name, unit).first->second;
}

const Counter* Registry::FindCounter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* Registry::FindGauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* Registry::FindHistogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

Snapshot Registry::TakeSnapshot() const {
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c.value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g.value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    Snapshot::HistogramValue v;
    v.name = name;
    v.unit = h.unit();
    v.count = h.count();
    v.sum = h.sum();
    v.min = h.min();
    v.max = h.max();
    v.p50 = h.Quantile(0.5);
    v.p90 = h.Quantile(0.9);
    v.p99 = h.Quantile(0.99);
    v.p999 = h.Quantile(0.999);
    v.buckets = h.NonEmptyBuckets();
    snap.histograms.push_back(std::move(v));
  }
  return snap;
}

void Tally::Bind() { counter_ = &GetCounter(name_); }

void Registry::ResetAll() {
  for (auto& [name, c] : counters_) {
    c.Reset();
  }
  for (auto& [name, g] : gauges_) {
    g.Reset();
  }
  for (auto& [name, h] : histograms_) {
    h.Reset();
  }
}

}  // namespace metrics
