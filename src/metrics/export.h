// Exporters for the metrics registry (src/metrics/metrics.h). Two
// formats:
//
//  * JSON — the `metrics` object embedded in every BENCH_*.json artifact
//    (and written standalone by `chaos_cli --metrics-out=<file>`):
//    {"counters": {...}, "gauges": {...}, "histograms": {name: {unit,
//    count, sum, min, max, p50, p90, p99, max_rel_error, buckets:
//    [[lo,hi,count],...]}}}. Quantiles are nearest-rank bucket midpoints,
//    within max_rel_error of the exact order statistic.
//  * Aligned text — a terminal dump, used by the chaos_cli `stats`
//    command.
//
// Example:
//   metrics::WriteText(metrics::Registry::Get(), std::cout);
//   lv::Status s = metrics::WriteJsonFile(metrics::Registry::Get(), "metrics.json");
#pragma once

#include <iosfwd>
#include <string>

#include "src/base/result.h"
#include "src/metrics/metrics.h"

namespace metrics {

// JSON string escaping, shared with the bench harness's report writer.
std::string JsonEscape(const std::string& s);

// Renders a double as JSON (no NaN/Inf in JSON: they become null / a large
// sentinel string is avoided by clamping — histograms only ever expose +inf
// as a bucket upper bound, which is emitted as the string "+inf").
std::string JsonNumber(double v);

void WriteJson(const Registry& registry, std::ostream& out);
lv::Status WriteJsonFile(const Registry& registry, const std::string& path);

void WriteText(const Registry& registry, std::ostream& out);

}  // namespace metrics
