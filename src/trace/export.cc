#include "src/trace/export.h"

#include <fstream>
#include <map>
#include <ostream>

#include "src/base/strings.h"

namespace trace {

namespace {

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

// Simulated ns -> trace_event microseconds.
double ToUs(lv::TimePoint t) { return static_cast<double>(t.ns()) / 1e3; }

}  // namespace

void WriteChromeTrace(const Tracer& tracer, std::ostream& out) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
         "\"args\":{\"name\":\"lightvm\"}}";
  const auto& tracks = tracer.tracks();
  for (size_t tid = 0; tid < tracks.size(); ++tid) {
    out << lv::StrFormat(",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
                         "\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                         tid, JsonEscape(tracks[tid]).c_str());
    // Sort rows by track id rather than alphabetically.
    out << lv::StrFormat(",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
                         "\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":%zu}}",
                         tid, tid);
  }
  // Flow phases are positional: the first event of an id starts the flow
  // ("s"), the last finishes it ("f", binding to the enclosing slice), and
  // everything between is a step ("t"). Ids with fewer than two events are
  // skipped entirely so the file never contains a dangling flow.
  std::map<int64_t, int64_t> flow_counts;
  for (const Event& ev : tracer.events()) {
    if (ev.type == EventType::kFlow) {
      ++flow_counts[ev.flow];
    }
  }
  std::map<int64_t, int64_t> flow_seen;
  for (const Event& ev : tracer.events()) {
    switch (ev.type) {
      case EventType::kBegin:
        out << lv::StrFormat(",\n{\"ph\":\"B\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                             "\"name\":\"%s\"}",
                             ev.track, ToUs(ev.ts), JsonEscape(ev.name).c_str());
        break;
      case EventType::kEnd:
        out << lv::StrFormat(",\n{\"ph\":\"E\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                             "\"name\":\"%s\"}",
                             ev.track, ToUs(ev.ts), JsonEscape(ev.name).c_str());
        break;
      case EventType::kInstant:
        out << lv::StrFormat(",\n{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                             "\"name\":\"%s\",\"s\":\"t\"}",
                             ev.track, ToUs(ev.ts), JsonEscape(ev.name).c_str());
        break;
      case EventType::kFlow: {
        int64_t total = flow_counts[ev.flow];
        if (total < 2) {
          break;
        }
        int64_t index = flow_seen[ev.flow]++;
        const char* ph = index == 0 ? "s" : (index == total - 1 ? "f" : "t");
        // "bp":"e" binds the finish to the enclosing slice, matching how
        // the start/step events attach.
        out << lv::StrFormat(",\n{\"ph\":\"%s\",\"cat\":\"op\",\"id\":%lld,"
                             "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"name\":\"%s\"%s}",
                             ph, (long long)ev.flow, ev.track, ToUs(ev.ts),
                             JsonEscape(ev.name).c_str(),
                             ph[0] == 'f' ? ",\"bp\":\"e\"" : "");
        break;
      }
    }
  }
  out << "\n]}\n";
}

lv::Status WriteChromeTraceFile(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return lv::Err(lv::ErrorCode::kUnavailable,
                   lv::StrFormat("cannot open %s for writing", path.c_str()));
  }
  WriteChromeTrace(tracer, out);
  out.flush();
  if (!out) {
    return lv::Err(lv::ErrorCode::kUnavailable,
                   lv::StrFormat("short write to %s", path.c_str()));
  }
  return lv::Status::Ok();
}

}  // namespace trace
