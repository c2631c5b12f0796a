#include "src/base/time.h"

#include <cinttypes>
#include <cstdio>

namespace lv {

namespace {

std::string FormatNs(int64_t ns) {
  char buf[64];
  double v = static_cast<double>(ns);
  if (ns < 0) {
    return "-" + FormatNs(-ns);
  }
  if (ns < 1000) {
    snprintf(buf, sizeof(buf), "%" PRId64 "ns", ns);
  } else if (ns < 1000000) {
    snprintf(buf, sizeof(buf), "%.3gus", v / 1e3);
  } else if (ns < 1000000000) {
    snprintf(buf, sizeof(buf), "%.4gms", v / 1e6);
  } else {
    snprintf(buf, sizeof(buf), "%.4gs", v / 1e9);
  }
  return buf;
}

}  // namespace

std::string Duration::ToString() const { return FormatNs(ns_); }

}  // namespace lv
