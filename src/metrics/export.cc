#include "src/metrics/export.h"

#include <cmath>
#include <fstream>
#include <ostream>

#include "src/base/strings.h"

namespace metrics {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += lv::StrFormat("\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (std::isnan(v)) {
    return "null";
  }
  if (std::isinf(v)) {
    return v > 0 ? "\"+inf\"" : "\"-inf\"";
  }
  // Integers (counts, byte totals) print without a fraction so the JSON is
  // stable across runs; everything else keeps full double precision.
  if (v == static_cast<double>(static_cast<int64_t>(v)) && std::fabs(v) < 1e15) {
    return lv::StrFormat("%lld", (long long)v);
  }
  return lv::StrFormat("%.17g", v);
}

namespace {

void WriteHistogramJson(const Snapshot::HistogramValue& h, std::ostream& out) {
  // min/max are the exact observed extremes (not bucket midpoints): bucket
  // resolution would hide the tail values SLO checks gate on.
  out << lv::StrFormat(
      "{\"unit\":\"%s\",\"count\":%lld,\"sum\":%s,\"min\":%s,\"max\":%s,"
      "\"p50\":%s,\"p90\":%s,\"p99\":%s,\"p999\":%s,\"max_rel_error\":%s,\"buckets\":[",
      JsonEscape(h.unit).c_str(), (long long)h.count, JsonNumber(h.sum).c_str(),
      JsonNumber(h.min).c_str(), JsonNumber(h.max).c_str(), JsonNumber(h.p50).c_str(),
      JsonNumber(h.p90).c_str(), JsonNumber(h.p99).c_str(), JsonNumber(h.p999).c_str(),
      JsonNumber(Histogram::kMaxRelativeError).c_str());
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    const auto& b = h.buckets[i];
    out << (i == 0 ? "" : ",")
        << lv::StrFormat("[%s,%s,%lld]", JsonNumber(b.lo).c_str(), JsonNumber(b.hi).c_str(),
                         (long long)b.count);
  }
  out << "]}";
}

}  // namespace

void WriteJson(const Registry& registry, std::ostream& out) {
  Snapshot snap = registry.TakeSnapshot();
  out << "{\"counters\":{";
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    out << (i == 0 ? "" : ",")
        << lv::StrFormat("\n\"%s\":%s", JsonEscape(snap.counters[i].first).c_str(),
                         JsonNumber(snap.counters[i].second).c_str());
  }
  out << "},\n\"gauges\":{";
  for (size_t i = 0; i < snap.gauges.size(); ++i) {
    out << (i == 0 ? "" : ",")
        << lv::StrFormat("\n\"%s\":%s", JsonEscape(snap.gauges[i].first).c_str(),
                         JsonNumber(snap.gauges[i].second).c_str());
  }
  out << "},\n\"histograms\":{";
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    out << (i == 0 ? "" : ",")
        << lv::StrFormat("\n\"%s\":", JsonEscape(snap.histograms[i].name).c_str());
    WriteHistogramJson(snap.histograms[i], out);
  }
  out << "}}\n";
}

lv::Status WriteJsonFile(const Registry& registry, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return lv::Err(lv::ErrorCode::kUnavailable,
                   lv::StrFormat("cannot open %s for writing", path.c_str()));
  }
  WriteJson(registry, out);
  out.flush();
  if (!out) {
    return lv::Err(lv::ErrorCode::kUnavailable,
                   lv::StrFormat("short write to %s", path.c_str()));
  }
  return lv::Status::Ok();
}

void WriteText(const Registry& registry, std::ostream& out) {
  Snapshot snap = registry.TakeSnapshot();
  if (!snap.counters.empty()) {
    out << lv::StrFormat("%-40s %14s\n", "counter", "value");
    for (const auto& [name, value] : snap.counters) {
      out << lv::StrFormat("%-40s %14.0f\n", name.c_str(), value);
    }
  }
  if (!snap.gauges.empty()) {
    out << lv::StrFormat("%-40s %14s\n", "gauge", "value");
    for (const auto& [name, value] : snap.gauges) {
      out << lv::StrFormat("%-40s %14.2f\n", name.c_str(), value);
    }
  }
  if (!snap.histograms.empty()) {
    out << lv::StrFormat("%-28s %8s %10s %10s %10s %10s %10s\n", "histogram", "count", "min",
                         "p50", "p90", "p99", "max");
    for (const auto& h : snap.histograms) {
      std::string label = h.name;
      if (!h.unit.empty()) {
        label += " (" + h.unit + ")";
      }
      out << lv::StrFormat("%-28s %8lld %10.3f %10.3f %10.3f %10.3f %10.3f\n", label.c_str(),
                           (long long)h.count, h.min, h.p50, h.p90, h.p99, h.max);
    }
  }
  if (snap.counters.empty() && snap.gauges.empty() && snap.histograms.empty()) {
    out << "(no metrics recorded)\n";
  }
}

}  // namespace metrics
