// Chrome trace_event JSON exporter for the tracing layer
// (src/trace/trace.h), loadable in chrome://tracing or
// https://ui.perfetto.dev. Tracks become threads of one "lightvm" process,
// spans become B/E duration events and flows become s/t/f arcs. Timestamps
// are the simulated clock converted to microseconds (the format's native
// unit). The trace carries no counts: those live in the metrics registry
// (src/metrics), which the same run writes with --json or --metrics-out.
//
// Clock/threading assumptions match the Tracer's: single-threaded
// simulation, simulated timestamps, events already in non-decreasing time
// order (the exporter emits them verbatim in recording order).
//
// Example:
//   lv::Status s = trace::WriteChromeTraceFile(trace::Tracer::Get(), "trace.json");
#pragma once

#include <iosfwd>
#include <string>

#include "src/base/result.h"
#include "src/trace/trace.h"

namespace trace {

// Writes the full Chrome trace_event JSON document to `out`.
void WriteChromeTrace(const Tracer& tracer, std::ostream& out);

// Same, to a file. Fails if the file cannot be opened or written.
lv::Status WriteChromeTraceFile(const Tracer& tracer, const std::string& path);

}  // namespace trace
