#include "harness/bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "src/metrics/metrics.h"

namespace perfbench {

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
  return buf;
}

SpanLog::Handle SpanLog::Begin(const char* name, int lane, const Handle* parent) {
  Handle h;
  h.id = next_id_++;
  h.name = name;
  h.lane = lane;
  if (parent != nullptr) {
    h.parent = parent->id;
    h.parent_name = parent->name;
  }
  h.start_ns = HostNs();
  if (origin_ns_ == 0) {
    origin_ns_ = h.start_ns;
  }
  return h;
}

void SpanLog::End(const Handle& h) {
  int64_t end = HostNs();
  Total& t = totals_[h.name];
  ++t.count;
  t.total_ns += end - h.start_ns;
  if (h.parent_name != nullptr) {
    totals_[h.parent_name].child_ns += end - h.start_ns;
  }
  if (records_.size() < kMaxRecords) {
    records_.push_back(Record{h.id, h.parent, h.name, h.lane, h.start_ns, end});
  }
}

bool SpanLog::Write(const std::string& path, const std::string& metadata_json) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\"metadata\": " << metadata_json << ",\n\"traceEvents\": [\n";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    char line[320];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld}}%s\n",
                  r.name, r.lane, static_cast<double>(r.start_ns - origin_ns_) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3, (long long)r.id,
                  (long long)r.parent, i + 1 < records_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Counters Counters::Read(const sim::Engine* engine) {
  // Registry handles stay valid for the process lifetime; look them up once.
  static metrics::Counter* const kHandles[kNumCounters] = {
      nullptr,
      &metrics::GetCounter("hv.hypervisor.hypercalls"),
      &metrics::GetCounter("hv.memory.pages_populated"),
      &metrics::GetCounter("xenstore.daemon.ops"),
      &metrics::GetCounter("xenstore.daemon.watch_events"),
      &metrics::GetCounter("xenstore.daemon.ops.tx_commit"),
      &metrics::GetCounter("xenstore.client.tx_retries"),
      &metrics::GetCounter("xenstore.daemon.restarts"),
      &metrics::GetCounter("devices.backend.attaches"),
      &metrics::GetCounter("devices.hotplug.bash_runs"),
      &metrics::GetCounter("devices.hotplug.xendevd_runs"),
      &metrics::GetCounter("toolstack.chaos.shell_pool_hits"),
      &metrics::GetCounter("toolstack.chaos.shell_pool_misses"),
      &metrics::GetCounter("toolstack.chaosd.shells_built"),
      &metrics::GetCounter("node.jobs.started"),
      &metrics::GetCounter("node.jobs.failed"),
      &metrics::GetCounter("net.link.sends"),
      &metrics::GetCounter("cluster.admission_rejects"),
      &metrics::GetCounter("cluster.deploy_retries"),
      &metrics::GetCounter("cluster.deploy_replacements"),
      &metrics::GetCounter("cluster.vms_lost"),
      &metrics::GetCounter("cluster.vms_recovered"),
  };
  Counters c;
  c.v[kEvents] = engine != nullptr ? static_cast<double>(engine->processed_events()) : 0.0;
  for (int i = 1; i < kNumCounters; ++i) {
    c.v[i] = kHandles[i]->value();
  }
  return c;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::llround(q * static_cast<double>(v.size() - 1)));
  return v[std::min(rank, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace perfbench
