#include "src/obs/obs.h"

#include <fstream>

#include "src/base/strings.h"

namespace obs {

namespace {

// Process-wide monotonic op-id source. Plain counter (no randomness, no
// wall clock) so same-seed runs mint identical ids.
int64_t g_next_op = 0;

}  // namespace

OpRef NewOp(OpRef parent) {
  OpRef op;
  op.id = ++g_next_op;
  op.root = parent.valid() ? parent.root : op.id;
  op.parent = parent.id;
  return op;
}

FlightRecorder& FlightRecorder::Get() {
  static FlightRecorder& recorder = *new FlightRecorder();
  return recorder;
}

void FlightRecorder::Record(int node, const OpRef& op, const char* layer,
                            const char* verb, bool ok, int64_t arg) {
  if (node < 0) {
    node = 0;
  }
  if (static_cast<size_t>(node) >= rings_.size()) {
    rings_.resize(static_cast<size_t>(node) + 1);
  }
  Ring& ring = rings_[static_cast<size_t>(node)];
  FlightEvent ev;
  ev.ts = Now();
  ev.op = op.id;
  ev.parent = op.parent;
  ev.node = node;
  ev.layer = layer;
  ev.verb = verb;
  ev.ok = ok;
  ev.arg = arg;
  if (ring.slots.size() < static_cast<size_t>(kRingCapacity)) {
    ring.slots.push_back(ev);
  } else {
    ring.slots[ring.next] = ev;
  }
  ring.next = (ring.next + 1) % static_cast<size_t>(kRingCapacity);
  ++ring.total;
}

std::vector<FlightEvent> FlightRecorder::NodeEvents(int node) const {
  std::vector<FlightEvent> out;
  if (node < 0 || static_cast<size_t>(node) >= rings_.size()) {
    return out;
  }
  const Ring& ring = rings_[static_cast<size_t>(node)];
  out.reserve(ring.slots.size());
  if (ring.slots.size() < static_cast<size_t>(kRingCapacity)) {
    out = ring.slots;
  } else {
    for (size_t i = 0; i < ring.slots.size(); ++i) {
      out.push_back(ring.slots[(ring.next + i) % ring.slots.size()]);
    }
  }
  return out;
}

int64_t FlightRecorder::Dropped(int node) const {
  if (node < 0 || static_cast<size_t>(node) >= rings_.size()) {
    return 0;
  }
  const Ring& ring = rings_[static_cast<size_t>(node)];
  return ring.total - static_cast<int64_t>(ring.slots.size());
}

void FlightRecorder::WriteJson(std::ostream& out) const {
  // layer/verb are string literals chosen by the instrumentation (never
  // user input), so no JSON escaping is needed.
  out << "{\"schema\":\"lightvm-flight/1\",\"nodes\":[";
  bool first_node = true;
  for (size_t node = 0; node < rings_.size(); ++node) {
    const Ring& ring = rings_[node];
    if (ring.total == 0) {
      continue;
    }
    if (!first_node) {
      out << ",";
    }
    first_node = false;
    out << lv::StrFormat("\n{\"node\":%d,\"recorded\":%lld,\"dropped\":%lld,\"events\":[",
                         static_cast<int>(node), (long long)ring.total,
                         (long long)Dropped(static_cast<int>(node)));
    std::vector<FlightEvent> events = NodeEvents(static_cast<int>(node));
    for (size_t i = 0; i < events.size(); ++i) {
      const FlightEvent& ev = events[i];
      out << lv::StrFormat(
          "%s\n{\"ts_ns\":%lld,\"op\":%lld,\"parent\":%lld,\"layer\":\"%s\","
          "\"verb\":\"%s\",\"ok\":%s,\"arg\":%lld}",
          i == 0 ? "" : ",", (long long)ev.ts.ns(), (long long)ev.op,
          (long long)ev.parent, ev.layer, ev.verb, ev.ok ? "true" : "false",
          (long long)ev.arg);
    }
    out << "\n]}";
  }
  out << "\n]}\n";
}

bool FlightRecorder::DumpJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  WriteJson(out);
  return out.good();
}

void FlightRecorder::MaybeDump() const {
  if (!dump_path_.empty()) {
    (void)DumpJson(dump_path_);
  }
}

void FlightRecorder::Reset() {
  rings_.clear();
  g_next_op = 0;
}

}  // namespace obs
