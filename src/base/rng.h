// Deterministic random number generation.
//
// Every stochastic element of the simulation (fork/exec latency jitter,
// random checkpoint victims, client arrival processes) draws from an Rng
// seeded at simulation construction, so runs are exactly reproducible.
#pragma once

#include <cstdint>
#include <random>

#include "src/base/assert.h"
#include "src/base/time.h"

namespace lv {

class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}

  // Uniform integer in [lo, hi] inclusive.
  int64_t Uniform(int64_t lo, int64_t hi) {
    LV_CHECK(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(gen_);
  }

  // Uniform double in [lo, hi).
  double UniformReal(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(gen_);
  }

  // Bernoulli trial with success probability p.
  bool Chance(double p) { return std::bernoulli_distribution(p)(gen_); }

  // Exponentially distributed duration with the given mean (Poisson arrivals).
  Duration Exponential(Duration mean) {
    double rate = 1.0 / static_cast<double>(mean.ns());
    double ns = std::exponential_distribution<double>(rate)(gen_);
    return Duration::Nanos(static_cast<int64_t>(ns));
  }

  // Normal-distributed duration, truncated at a minimum.
  Duration Normal(Duration mean, Duration stddev, Duration min) {
    double ns = std::normal_distribution<double>(static_cast<double>(mean.ns()),
                                                 static_cast<double>(stddev.ns()))(gen_);
    int64_t v = static_cast<int64_t>(ns);
    return Duration::Nanos(v < min.ns() ? min.ns() : v);
  }

  // Log-normal-ish heavy-tailed duration: mean scale with multiplicative noise.
  Duration Skewed(Duration median, double sigma) {
    double f = std::lognormal_distribution<double>(0.0, sigma)(gen_);
    return Duration::Nanos(static_cast<int64_t>(static_cast<double>(median.ns()) * f));
  }

  std::mt19937_64& engine() { return gen_; }

 private:
  std::mt19937_64 gen_;
};

}  // namespace lv
