// Statistics helpers used by the benchmark harness and the metrics layer:
// running accumulators, exact-quantile samples, and CDF rendering.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/assert.h"
#include "src/base/time.h"

namespace lv {

// Running mean/min/max/stddev without storing samples, via Welford's online
// algorithm (numerically stable: no catastrophic cancellation for large
// same-sign samples, unlike the naive sum/sum-of-squares form).
class Accumulator {
 public:
  void Add(double x);

  int64_t count() const { return n_; }
  double mean() const { return mean_; }
  double min() const { return n_ == 0 ? 0.0 : min_; }
  double max() const { return n_ == 0 ? 0.0 : max_; }
  // Sample (n-1) variance.
  double variance() const;
  double stddev() const { return std::sqrt(variance()); }

 private:
  int64_t n_ = 0;
  double mean_ = 0.0;  // Welford running mean.
  double m2_ = 0.0;    // Welford running sum of squared deviations.
  double min_ = 0.0;
  double max_ = 0.0;
};

// Stores samples and answers exact quantile queries. Suitable for the sample
// counts this repo produces (<= millions).
class Samples {
 public:
  void Add(double x) {
    xs_.push_back(x);
    sorted_ = false;
  }
  void AddDuration(Duration d) { Add(d.ms()); }

  int64_t count() const { return static_cast<int64_t>(xs_.size()); }
  bool empty() const { return xs_.empty(); }
  double mean() const;
  double min() const;
  double max() const;
  // q in [0,1]; linear interpolation between order statistics.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

  // Renders an n-point CDF as (value, cumulative_fraction) pairs.
  std::vector<std::pair<double, double>> Cdf(int points = 50) const;

  const std::vector<double>& values() const { return xs_; }

 private:
  void Sort() const;
  mutable std::vector<double> xs_;
  mutable bool sorted_ = true;
};

// Whether row `i` of [1, total] is one of the ~`points` rows a printed table
// shows (full data goes to BENCH json). The first and last rows always are;
// when total <= points every row is (a zero step would drop every interior
// row).
inline bool SampleRow(int i, int total, int points = 25) {
  if (i == 1 || i == total) {
    return true;
  }
  int step = total / points;
  if (step == 0) {
    return true;
  }
  return i % step == 0;
}

// A (time, value) series, e.g. "number of concurrently running VMs".
class TimeSeries {
 public:
  void Record(TimePoint t, double value) { points_.emplace_back(t, value); }
  const std::vector<std::pair<TimePoint, double>>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  double MaxValue() const;
  // Value as of time t (step function; 0 before first point).
  double At(TimePoint t) const;

 private:
  std::vector<std::pair<TimePoint, double>> points_;
};

}  // namespace lv
