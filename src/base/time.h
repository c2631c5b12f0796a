// Simulated-time primitives used throughout the LightVM reproduction.
//
// The discrete-event simulation measures everything in integer nanoseconds.
// Duration and TimePoint are distinct strong types so that "a point on the
// simulated clock" and "an amount of simulated time" cannot be mixed up.
#pragma once

#include <cstdint>
#include <string>

namespace lv {

// An amount of simulated time. Signed so that subtraction is well-defined.
class Duration {
 public:
  constexpr Duration() : ns_(0) {}

  static constexpr Duration Nanos(int64_t ns) { return Duration(ns); }
  static constexpr Duration Micros(int64_t us) { return Duration(us * 1000); }
  static constexpr Duration Millis(int64_t ms) { return Duration(ms * 1000000); }
  static constexpr Duration Seconds(int64_t s) { return Duration(s * 1000000000); }
  // Fractional factories, useful for cost models expressed in fractional units.
  static constexpr Duration MillisF(double ms) { return Duration(static_cast<int64_t>(ms * 1e6)); }
  static constexpr Duration SecondsF(double s) { return Duration(static_cast<int64_t>(s * 1e9)); }
  static constexpr Duration Max() { return Duration(INT64_MAX); }

  constexpr int64_t ns() const { return ns_; }
  constexpr double us() const { return static_cast<double>(ns_) / 1e3; }
  constexpr double ms() const { return static_cast<double>(ns_) / 1e6; }
  constexpr double secs() const { return static_cast<double>(ns_) / 1e9; }

  constexpr bool is_zero() const { return ns_ == 0; }

  constexpr Duration operator+(Duration o) const { return Duration(ns_ + o.ns_); }
  constexpr Duration operator-(Duration o) const { return Duration(ns_ - o.ns_); }
  // Scalar multiply/divide go through double; at simulated-time magnitudes
  // (<= hours in ns) the 53-bit mantissa is exact enough.
  constexpr Duration operator*(double k) const {
    return Duration(static_cast<int64_t>(static_cast<double>(ns_) * k));
  }
  constexpr Duration operator/(double k) const {
    return Duration(static_cast<int64_t>(static_cast<double>(ns_) / k));
  }
  constexpr double operator/(Duration o) const {
    return static_cast<double>(ns_) / static_cast<double>(o.ns_);
  }
  Duration& operator+=(Duration o) {
    ns_ += o.ns_;
    return *this;
  }
  Duration& operator-=(Duration o) {
    ns_ -= o.ns_;
    return *this;
  }
  constexpr auto operator<=>(const Duration&) const = default;

  // Human-readable rendering, e.g. "2.3ms" or "450us".
  std::string ToString() const;

 private:
  explicit constexpr Duration(int64_t ns) : ns_(ns) {}
  int64_t ns_;
};

// A point on the simulated clock (nanoseconds since simulation start).
class TimePoint {
 public:
  constexpr TimePoint() : ns_(0) {}
  static constexpr TimePoint FromNanos(int64_t ns) { return TimePoint(ns); }
  static constexpr TimePoint Max() { return TimePoint(INT64_MAX); }

  constexpr int64_t ns() const { return ns_; }
  constexpr double ms() const { return static_cast<double>(ns_) / 1e6; }
  constexpr double secs() const { return static_cast<double>(ns_) / 1e9; }

  constexpr TimePoint operator+(Duration d) const { return TimePoint(ns_ + d.ns()); }
  constexpr TimePoint operator-(Duration d) const { return TimePoint(ns_ - d.ns()); }
  constexpr Duration operator-(TimePoint o) const { return Duration::Nanos(ns_ - o.ns_); }
  constexpr auto operator<=>(const TimePoint&) const = default;

 private:
  explicit constexpr TimePoint(int64_t ns) : ns_(ns) {}
  int64_t ns_;
};

}  // namespace lv
