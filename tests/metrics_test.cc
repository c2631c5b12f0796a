// Tests for the always-on metrics registry: bucket boundaries, the
// histogram's documented relative-error bound against exact quantiles,
// merging, snapshot/reset semantics, tally binding, and the Welford
// accumulator against a two-pass reference.
#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/stats.h"
#include "src/metrics/export.h"
#include "src/metrics/metrics.h"

namespace {

TEST(CounterTest, IncAndReset) {
  metrics::Counter c;
  EXPECT_EQ(c.value(), 0.0);
  c.Inc();
  c.Inc(41.0);
  EXPECT_EQ(c.value(), 42.0);
  c.Reset();
  EXPECT_EQ(c.value(), 0.0);
}

TEST(GaugeTest, SetAddReset) {
  metrics::Gauge g;
  g.Set(10.0);
  g.Add(-3.0);
  EXPECT_EQ(g.value(), 7.0);
  g.Reset();
  EXPECT_EQ(g.value(), 0.0);
}

// Counters and gauges are plain doubles added in call order, so fractional
// deltas (which do not sum exactly in binary) match a serial loop bit for bit.
TEST(CounterTest, FractionalIncrementsMatchSerialSum) {
  metrics::Counter c;
  metrics::Gauge g;
  double want = 0.0;
  for (int i = 0; i < 1000; ++i) {
    double delta = 0.1 * (i % 7 + 1);
    c.Inc(delta);
    g.Add(-delta);
    want += delta;
  }
  EXPECT_EQ(c.value(), want);
  EXPECT_EQ(g.value(), -want);
}

TEST(HistogramTest, EmptyHistogram) {
  metrics::Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_TRUE(h.NonEmptyBuckets().empty());
}

TEST(HistogramTest, BucketBoundariesContainTheValue) {
  // For a spread of magnitudes, the single non-empty bucket must bracket
  // the recorded value and be narrow enough for the documented error bound
  // (width / lo == 1/kSubBuckets == 2 * kMaxRelativeError).
  for (double x : {1e-9, 0.004, 0.37, 1.0, 1.5, 2.0, 3.14159, 548.0, 1e6, 9.5e11}) {
    metrics::Histogram h;
    h.Record(x);
    std::vector<metrics::Histogram::Bucket> buckets = h.NonEmptyBuckets();
    ASSERT_EQ(buckets.size(), 1u) << "x=" << x;
    EXPECT_LE(buckets[0].lo, x) << "x=" << x;
    EXPECT_GE(buckets[0].hi, x) << "x=" << x;
    EXPECT_EQ(buckets[0].count, 1);
    EXPECT_LE((buckets[0].hi - buckets[0].lo) / buckets[0].lo,
              2.0 * metrics::Histogram::kMaxRelativeError + 1e-12)
        << "x=" << x;
  }
}

TEST(HistogramTest, NonPositiveValuesUnderflow) {
  metrics::Histogram h;
  h.Record(0.0);
  h.Record(-5.0);
  h.Record(1e-14);  // below 2^-40
  std::vector<metrics::Histogram::Bucket> buckets = h.NonEmptyBuckets();
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0].lo, 0.0);
  EXPECT_EQ(buckets[0].count, 3);
  // Quantiles of underflow-only data report the exact (tracked) min/max.
  EXPECT_EQ(h.min(), -5.0);
  EXPECT_LE(h.Quantile(0.0), h.Quantile(1.0));
}

TEST(HistogramTest, HugeValuesOverflow) {
  metrics::Histogram h;
  h.Record(1e15);  // above 2^40
  std::vector<metrics::Histogram::Bucket> buckets = h.NonEmptyBuckets();
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_TRUE(std::isinf(buckets[0].hi));
  // The overflow quantile saturates at the exact tracked max.
  EXPECT_EQ(h.Quantile(0.99), 1e15);
}

TEST(HistogramTest, TracksExactMinMaxSumCount) {
  metrics::Histogram h("ms");
  for (double x : {3.0, 1.0, 4.0, 1.5, 9.0}) {
    h.Record(x);
  }
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 9.0);
  EXPECT_DOUBLE_EQ(h.sum(), 18.5);
  EXPECT_DOUBLE_EQ(h.mean(), 3.7);
  EXPECT_EQ(h.unit(), "ms");
}

TEST(HistogramTest, RecordDurationUsesMilliseconds) {
  metrics::Histogram h("ms");
  h.RecordDuration(lv::Duration::Millis(250));
  EXPECT_DOUBLE_EQ(h.sum(), 250.0);
}

// The headline guarantee: on random data, every quantile is within
// kMaxRelativeError of the exact order statistic.
TEST(HistogramTest, QuantileRelativeErrorBound) {
  std::mt19937 rng(20170828);  // SOSP'17 camera-ready deadline-ish seed.
  std::uniform_real_distribution<double> log_u(std::log(0.01), std::log(1000.0));
  metrics::Histogram h;
  std::vector<double> exact;
  lv::Samples samples;
  const int kN = 10000;
  for (int i = 0; i < kN; ++i) {
    double x = std::exp(log_u(rng));  // log-uniform over 5 decades
    h.Record(x);
    exact.push_back(x);
    samples.Add(x);
  }
  std::sort(exact.begin(), exact.end());
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    // Same nearest-rank rule the histogram documents.
    auto rank = static_cast<size_t>(q * (kN - 1) + 0.5);
    double want = exact[rank];
    double got = h.Quantile(q);
    EXPECT_LE(std::abs(got - want) / want, metrics::Histogram::kMaxRelativeError)
        << "q=" << q << " exact=" << want << " approx=" << got;
    // And against lv::Samples' interpolated quantile, a slightly looser
    // bound (interpolation vs nearest rank differ by at most one sample).
    double interp = samples.Quantile(q);
    EXPECT_LE(std::abs(got - interp) / interp, 0.02) << "q=" << q;
  }
  // Extremes never escape the observed range.
  EXPECT_GE(h.Quantile(0.0), exact.front());
  EXPECT_LE(h.Quantile(1.0), exact.back());
}

TEST(HistogramTest, MergeMatchesCombinedRecording) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> u(0.1, 100.0);
  metrics::Histogram a;
  metrics::Histogram b;
  metrics::Histogram combined;
  for (int i = 0; i < 2000; ++i) {
    double x = u(rng);
    (i % 2 == 0 ? a : b).Record(x);
    combined.Record(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  // Summation order differs between the two recording paths.
  EXPECT_NEAR(a.sum(), combined.sum(), combined.sum() * 1e-12);
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  // Bucket-wise identical, so quantiles agree exactly.
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.Quantile(q), combined.Quantile(q)) << "q=" << q;
  }
}

TEST(HistogramTest, ResetClearsValuesButStaysUsable) {
  metrics::Histogram h;
  h.Record(5.0);
  h.Reset();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  h.Record(7.0);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.Quantile(0.5), 7.0);
}

TEST(RegistryTest, FindOrCreateReturnsStableHandles) {
  metrics::Registry& reg = metrics::Registry::Get();
  metrics::Counter& c1 = reg.GetCounter("test.registry.stable");
  metrics::Counter& c2 = reg.GetCounter("test.registry.stable");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(reg.FindCounter("test.registry.never_created"), nullptr);
  EXPECT_EQ(reg.FindCounter("test.registry.stable"), &c1);
}

TEST(RegistryTest, SnapshotAndResetSemantics) {
  metrics::Registry& reg = metrics::Registry::Get();
  metrics::Counter& c = reg.GetCounter("test.snapshot.counter");
  metrics::Gauge& g = reg.GetGauge("test.snapshot.gauge");
  metrics::Histogram& h = reg.GetHistogram("test.snapshot.hist_ms", "ms");
  c.Inc(3.0);
  g.Set(12.0);
  h.Record(10.0);
  h.Record(20.0);

  metrics::Snapshot snap = reg.TakeSnapshot();
  bool saw_counter = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "test.snapshot.counter") {
      saw_counter = true;
      EXPECT_EQ(value, 3.0);
    }
  }
  EXPECT_TRUE(saw_counter);
  bool saw_hist = false;
  for (const auto& hv : snap.histograms) {
    if (hv.name == "test.snapshot.hist_ms") {
      saw_hist = true;
      EXPECT_EQ(hv.unit, "ms");
      EXPECT_EQ(hv.count, 2);
      EXPECT_EQ(hv.min, 10.0);
      EXPECT_EQ(hv.max, 20.0);
      EXPECT_GE(hv.p50, 10.0);
      EXPECT_LE(hv.p99, 20.0);
    }
  }
  EXPECT_TRUE(saw_hist);

  // ResetAll zeroes values but keeps registrations and outstanding handles.
  int64_t metrics_before = reg.NumMetrics();
  reg.ResetAll();
  EXPECT_EQ(reg.NumMetrics(), metrics_before);
  EXPECT_EQ(c.value(), 0.0);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_TRUE(h.empty());
  c.Inc();  // The old handle still feeds the same registered metric.
  EXPECT_EQ(reg.FindCounter("test.snapshot.counter")->value(), 1.0);
}

// The registry is single-threaded, so a histogram's `sum` accumulates in
// record order: replaying the same values after ResetAll reproduces the
// snapshot exactly, `sum` included.
TEST(RegistryTest, HistogramSumRepeatsExactlyAfterResetAll) {
  metrics::Registry& reg = metrics::Registry::Get();
  metrics::Histogram& h = reg.GetHistogram("test.repeat.hist_ms", "ms");
  std::vector<double> values;
  double want = 0.0;
  for (int i = 1; i <= 500; ++i) {
    values.push_back(1.0 / i + 0.3 * (i % 11));
    want += values.back();
  }
  auto record_and_snapshot = [&] {
    reg.ResetAll();
    for (double x : values) {
      h.Record(x);
    }
    for (const auto& hv : reg.TakeSnapshot().histograms) {
      if (hv.name == "test.repeat.hist_ms") {
        return hv;
      }
    }
    return metrics::Snapshot::HistogramValue{};
  };
  metrics::Snapshot::HistogramValue a = record_and_snapshot();
  metrics::Snapshot::HistogramValue b = record_and_snapshot();
  ASSERT_EQ(a.count, 500);
  EXPECT_EQ(a.sum, want);
  EXPECT_EQ(b.sum, a.sum);
  EXPECT_EQ(b.count, a.count);
  EXPECT_EQ(b.min, a.min);
  EXPECT_EQ(b.max, a.max);
  EXPECT_EQ(b.p99, a.p99);
  ASSERT_EQ(b.buckets.size(), a.buckets.size());
  for (size_t i = 0; i < a.buckets.size(); ++i) {
    EXPECT_EQ(b.buckets[i].lo, a.buckets[i].lo);
    EXPECT_EQ(b.buckets[i].count, a.buckets[i].count);
  }
}

// A tally binds its registry counter on the first Inc, where a
// function-local static at the increment would have registered it.
TEST(TallyTest, NeverIncrementedLeavesNoRegistryEntry) {
  metrics::Registry& reg = metrics::Registry::Get();
  metrics::Tally idle("test.tally.idle");
  EXPECT_EQ(idle.value(), 0);
  EXPECT_EQ(reg.FindCounter("test.tally.idle"), nullptr);
}

TEST(TallyTest, IncZeroCreatesTheEntryAtZero) {
  metrics::Registry& reg = metrics::Registry::Get();
  metrics::Tally failed("test.tally.zero");
  failed.Inc(0);
  EXPECT_EQ(failed.value(), 0);
  const metrics::Counter* counter = reg.FindCounter("test.tally.zero");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value(), 0.0);
}

// Each object keeps its own count; the registry counter of the same name
// sums every object's, and ResetAll clears only the registry side.
TEST(TallyTest, ObjectsKeepTheirOwnCountAndTheRegistrySumsThem) {
  metrics::Registry& reg = metrics::Registry::Get();
  metrics::Tally a("test.tally.shared");
  metrics::Tally b("test.tally.shared");
  a.Inc();
  b.Inc(5);
  a.Inc(2);
  EXPECT_EQ(a.value(), 3);
  EXPECT_EQ(b.value(), 5);
  EXPECT_EQ(reg.FindCounter("test.tally.shared")->value(), 8.0);
  reg.ResetAll();
  b.Inc();
  EXPECT_EQ(b.value(), 6);
  EXPECT_EQ(reg.FindCounter("test.tally.shared")->value(), 1.0);
}

TEST(ExportTest, JsonSnapshotRoundTripsValues) {
  metrics::Registry& reg = metrics::Registry::Get();
  reg.GetCounter("test.export.counter").Inc(5.0);
  reg.GetHistogram("test.export.hist_ms", "ms").Record(42.0);
  std::ostringstream out;
  metrics::WriteJson(reg, out);
  std::string json = out.str();
  EXPECT_NE(json.find("\"test.export.counter\":5"), std::string::npos);
  EXPECT_NE(json.find("\"test.export.hist_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"unit\":\"ms\""), std::string::npos);
}

// Satellite check: the Welford accumulator agrees with a two-pass reference
// on data engineered to break the naive sum-of-squares formula (large
// common offset, tiny spread).
TEST(AccumulatorTest, WelfordMatchesTwoPassReference) {
  std::mt19937 rng(12345);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  lv::Accumulator acc;
  std::vector<double> xs;
  const int kN = 10000;
  for (int i = 0; i < kN; ++i) {
    double x = 1e9 + u(rng);
    acc.Add(x);
    xs.push_back(x);
  }
  double sum = 0.0;
  for (double x : xs) {
    sum += x;
  }
  double mean = sum / kN;
  double m2 = 0.0;
  for (double x : xs) {
    m2 += (x - mean) * (x - mean);
  }
  double variance = m2 / (kN - 1);
  EXPECT_EQ(acc.count(), kN);
  EXPECT_NEAR(acc.mean(), mean, std::abs(mean) * 1e-12);
  // The naive sum/sum-of-squares form loses ALL precision here (the squared
  // sums are ~1e22, the spread ~0.08); Welford and the two-pass reference
  // agree to ~7 significant digits.
  EXPECT_NEAR(acc.variance(), variance, variance * 1e-6);
  EXPECT_GT(acc.variance(), 0.0);
}

TEST(AccumulatorTest, SmallExactCases) {
  lv::Accumulator acc;
  EXPECT_EQ(acc.count(), 0);
  EXPECT_EQ(acc.variance(), 0.0);
  acc.Add(2.0);
  EXPECT_EQ(acc.variance(), 0.0);  // n=1: sample variance undefined -> 0
  acc.Add(4.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 2.0);  // ((2-3)^2 + (4-3)^2) / (2-1)
  EXPECT_EQ(acc.min(), 2.0);
  EXPECT_EQ(acc.max(), 4.0);
}

}  // namespace
