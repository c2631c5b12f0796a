// perfbench_harness: host cost of the simulated control plane.
//
//   perfbench_harness --workload fleet_churn|xl_store|chaos_heal --seed N
//                     --seconds S --trace 0|1 [--expect HEX] [--trace-out FILE]
//
// Repeats the workload (set-up + fixed seeded op stream + checks) until S
// host seconds of op stream have been measured. --trace 1 measures half of
// S untraced and half traced (spans, counter deltas, layer ladder) and
// reports the per-layer metrics. Prints a readable report, then one JSON
// line with every value by name and unit; run.py turns that into the
// benchmark's result line.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/bench.h"
#include "harness/ladder.h"
#include "harness/workloads.h"
#include "src/base/strings.h"

namespace perfbench {
namespace {

// Hard caps on host seconds spent repeating, so a slow box still exits in
// time; at least this many repetitions always run.
constexpr double kWallCapS = 120.0;
constexpr size_t kMinPlainReps = 3;
constexpr size_t kMinPlainRepsTraced = 2;
// Ladder batches per traced repetition.
constexpr int64_t kLadderBatchesPerRep = 10;

struct Value {
  double value = 0;
  const char* unit = "";
};
using Values = std::vector<std::pair<std::string, Value>>;

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// Where the numbers came from. Runs from an unoptimized or sanitized build
// are flagged as not comparable with the recorded ones.
std::string Fingerprint() {
#if defined(__SANITIZE_ADDRESS__) && defined(__SANITIZE_THREAD__)
  const char* sanitizers = "address,thread";
#elif defined(__SANITIZE_ADDRESS__)
  const char* sanitizers = "address";
#elif defined(__SANITIZE_THREAD__)
  const char* sanitizers = "thread";
#else
  const char* sanitizers = "none";
#endif
  std::string flags = PERFBENCH_CXX_FLAGS;
  bool sanitized = std::strcmp(sanitizers, "none") != 0 ||
                   flags.find("-fsanitize") != std::string::npos;
  bool comparable = std::strcmp(PERFBENCH_BUILD_TYPE, "RelWithDebInfo") == 0 && !sanitized;
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %ld, \"cpu_model\": \"%s\", \"compiler\": \"g++ %s\", "
                "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"sanitizers\": \"%s\", "
                "\"comparable\": %s}",
                sysconf(_SC_NPROCESSORS_ONLN), Escape(CpuModel()).c_str(),
                Escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE, Escape(flags).c_str(),
                sanitized ? "sanitized" : sanitizers, comparable ? "true" : "false");
  return buf;
}

std::string ValuesJson(const Values& values) {
  std::string out = "{";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": [%.17g, \"%s\"]", i == 0 ? "" : ", ",
                  values[i].first.c_str(), values[i].second.value, values[i].second.unit);
    out += buf;
  }
  return out + "}";
}

void PrintValues(const char* title, const Values& values) {
  std::printf("\n## %s\n", title);
  for (const auto& [name, v] : values) {
    std::printf("  %-36s %16.6g %s\n", name.c_str(), v.value, v.unit);
  }
}

double OpsPerS(const RepResult& r) {
  return r.timed_s > 0 ? static_cast<double>(r.ops) / r.timed_s : 0.0;
}

double BestOpsPerS(const std::vector<RepResult>& reps) {
  double best = 0;
  for (const RepResult& r : reps) {
    best = std::max(best, OpsPerS(r));
  }
  return best;
}

template <typename F>
double MedianOf(const std::vector<RepResult>& reps, F&& f) {
  std::vector<double> v;
  for (const RepResult& r : reps) {
    v.push_back(f(r));
  }
  return Median(std::move(v));
}

// Best repetition for the timings (contention from other tenants only
// ever slows a repetition down), median for set-up, as documented.
Values EndToEnd(const std::vector<RepResult>& reps, double peak_rss_mib) {
  auto lowest = [&](auto f) {
    double v = f(reps.front());
    for (const RepResult& r : reps) {
      v = std::min(v, f(r));
    }
    return v;
  };
  return {
      {"ops_per_s", {BestOpsPerS(reps), "1/s"}},
      {"op_host_us_p50", {lowest([](const RepResult& r) { return r.p50_us; }), "us"}},
      {"op_host_us_p99", {lowest([](const RepResult& r) { return r.p99_us; }), "us"}},
      {"setup_s", {MedianOf(reps, [](const RepResult& r) { return r.setup_s; }), "s"}},
      {"peak_rss_mib", {peak_rss_mib, "MiB"}},
  };
}

Values PerLayer(const std::vector<RepResult>& plain, const std::vector<RepResult>& traced,
                const Ladder& ladder) {
  // Counts come from the first traced repetition; every repetition of a
  // seed repeats them exactly (checked by the caller).
  const RepResult& r = traced.front();
  const Counters& d = r.delta;
  const double ops = static_cast<double>(r.ops);
  auto per_op = [&](double v) { return v / ops; };
  auto frac = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  std::map<std::string, double> m = ladder.Medians();
  const Ladder::OwnPrices price = ladder.Prices();

  const double plain_ops_per_s = BestOpsPerS(plain);
  const double traced_ops_per_s = BestOpsPerS(traced);
  const double cost_ns = 1e9 / plain_ops_per_s;  // host cost of one operation
  const double events_per_op = per_op(d[kEvents]);

  Values v = {
      {"sim.events_per_op", {events_per_op, "1/op"}},
      {"sim.host_ns_per_event", {cost_ns / std::max(events_per_op, 1e-9), "ns"}},
      {"sim.queue_peak", {static_cast<double>(r.queue_peak), "count"}},
      {"sim.dispatch_ns", {m["sim.dispatch_ns"], "ns"}},
      {"sim.coro_resume_ns", {m["sim.coro_resume_ns"], "ns"}},
      {"sim.cpu_run_ns", {m["sim.cpu_run_ns"], "ns"}},
      {"hv.hypercalls_per_op", {per_op(d[kHypercalls]), "1/op"}},
      {"hv.pages_populated_per_op", {per_op(d[kPagesPopulated]), "1/op"}},
      {"hv.create_destroy_us", {m["hv.create_destroy_us"], "us"}},
      {"xenstore.ops_per_op", {per_op(d[kXsOps]), "1/op"}},
      {"xenstore.watch_events_per_op", {per_op(d[kXsWatchEvents]), "1/op"}},
      {"xenstore.unique_name_us", {m["xenstore.unique_name_us"], "us"}},
      {"xenstore.write_us", {m["xenstore.write_us"], "us"}},
      {"xenstore.rm_us", {m["xenstore.rm_us"], "us"}},
      {"xenstore.txn_us", {m["xenstore.txn_us"], "us"}},
      {"xenstore.tx_retry_frac", {frac(d[kXsTxRetries], d[kXsTxCommits]), "frac"}},
      {"xenstore.restarts", {d[kXsRestarts], "count"}},
      {"devices.attaches_per_op", {per_op(d[kAttaches]), "1/op"}},
      {"devices.hotplug_runs_per_op", {per_op(d[kBashRuns] + d[kXendevdRuns]), "1/op"}},
      {"guests.boot_us", {m["guests.boot_us"], "us"}},
      {"toolstack.create_us", {m["toolstack.create_us"], "us"}},
      {"toolstack.destroy_us", {m["toolstack.destroy_us"], "us"}},
      {"toolstack.shell_pool_hit_frac",
       {frac(d[kPoolHits], d[kPoolHits] + d[kPoolMisses]), "frac"}},
      {"toolstack.shells_built_per_op", {per_op(d[kShellsBuilt]), "1/op"}},
      {"core.jobs_per_op", {per_op(d[kJobsStarted]), "1/op"}},
      {"core.job_fail_frac", {frac(d[kJobsFailed], d[kJobsStarted]), "frac"}},
      {"core.job_us", {m["core.job_us"], "us"}},
      {"cluster.deploy_us", {m["cluster.deploy_us"], "us"}},
      {"cluster.admission_reject_frac",
       {frac(d[kAdmissionRejects], static_cast<double>(r.cluster_ops)), "frac"}},
      {"cluster.deploy_retries", {d[kDeployRetries], "count"}},
      {"cluster.replacements", {d[kReplacements], "count"}},
      // 1 when nothing was lost: no VM is left unrecovered.
      {"cluster.recovered_frac",
       {d[kVmsLost] > 0 ? d[kVmsRecovered] / d[kVmsLost] : 1.0, "frac"}},
      {"cluster.heal_us_per_sim_s", {m["cluster.heal_us_per_sim_s"], "us/s"}},
      {"net.link_sends_per_op", {per_op(d[kLinkSends]), "1/op"}},
      {"faults.injected", {static_cast<double>(r.faults_injected), "count"}},
      {"metrics.counter_inc_ns", {m["metrics.counter_inc_ns"], "ns"}},
      {"metrics.histogram_record_ns", {m["metrics.histogram_record_ns"], "ns"}},
      {"obs.flight_record_ns", {m["obs.flight_record_ns"], "ns"}},
      {"trace.span_off_ns", {m["trace.span_off_ns"], "ns"}},
  };
  // Attribution: per-operation count of each layer's work times its own
  // price, over the untraced host cost of one operation.
  const Values attr = {
      {"attr.sim_frac", {events_per_op * price.event_ns / cost_ns, "frac"}},
      {"attr.hv_frac", {per_op(d[kHypercalls]) * price.hypercall_ns / cost_ns, "frac"}},
      {"attr.xenstore_frac", {per_op(d[kXsOps]) * price.store_op_ns / cost_ns, "frac"}},
      {"attr.toolstack_frac",
       {(per_op(static_cast<double>(r.creates)) * price.create_ns +
         per_op(static_cast<double>(r.destroys)) * price.destroy_ns) /
            cost_ns,
        "frac"}},
      {"attr.core_frac", {per_op(d[kJobsStarted]) * price.job_ns / cost_ns, "frac"}},
      {"attr.cluster_frac",
       {per_op(static_cast<double>(r.cluster_ops)) * price.cluster_op_ns / cost_ns, "frac"}},
  };
  double attributed = 0;
  for (const auto& [name, value] : attr) {
    attributed += value.value;
    v.emplace_back(name, value);
  }
  v.push_back({"attr.unattributed_frac", {1.0 - attributed, "frac"}});
  v.push_back({"trace_overhead_frac", {1.0 - traced_ops_per_s / plain_ops_per_s, "frac"}});
  v.push_back({"workload.fail_frac", {frac(static_cast<double>(r.op_errors), ops), "frac"}});
  return v;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fleet_churn|xl_store|chaos_heal --seed N --seconds S "
               "--trace 0|1 [--expect HEX] [--trace-out FILE]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string expect;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(val);
    } else if (flag == "--trace") {
      trace = std::strcmp(val, "1") == 0;
    } else if (flag == "--expect") {
      expect = val;
    } else if (flag == "--trace-out") {
      trace_out = val;
    } else {
      return Usage(argv[0]);
    }
  }
  const std::vector<std::string>& names = WorkloadNames();
  if (argc % 2 == 0 || seconds <= 0 ||
      std::find(names.begin(), names.end(), workload) == names.end()) {
    return Usage(argv[0]);
  }

  const int64_t start_ns = HostNs();
  auto wall_s = [&] { return static_cast<double>(HostNs() - start_ns) / 1e9; };
  const double budget_s = trace ? seconds / 2 : seconds;

  std::vector<RepResult> plain;
  SpanLog spans;
  std::vector<RepResult> traced;
  std::unique_ptr<Ladder> ladder;
  double plain_s = 0;
  double traced_s = 0;
  auto budget_left = [&](double used) { return used < budget_s && wall_s() < kWallCapS; };
  auto run_plain = [&] {
    plain.push_back(RunRep(workload, seed, nullptr));
    plain_s += plain.back().timed_s;
  };
  run_plain();
  double peak_rss_mib = PeakRssMib();
  if (!trace) {
    while (plain.size() < kMinPlainReps || budget_left(plain_s)) {
      run_plain();
    }
    peak_rss_mib = PeakRssMib();
  } else {
    // Untraced and traced repetitions alternate, so both see the same box
    // and trace_overhead_frac compares like with like.
    SpanLog::Handle build = spans.Begin("ladder.build", 2);
    ladder = std::make_unique<Ladder>(plain.back().shape);
    spans.End(build);
    TraceHooks hooks{&spans, ladder.get(),
                     std::max<int64_t>(1, OpsPerRep(workload) / kLadderBatchesPerRep)};
    while (traced.empty() || plain.size() < kMinPlainRepsTraced ||
           budget_left(std::min(plain_s, traced_s))) {
      traced.push_back(RunRep(workload, seed, &hooks));
      traced_s += traced.back().timed_s;
      run_plain();
    }
  }

  // Correctness: every repetition (traced ones too: the ladder must not
  // perturb the workload) has the same digest and held every invariant;
  // traced repetitions repeat the same counts; a recorded seed matches
  // its recorded digest.
  std::vector<std::string> errors;
  const uint64_t digest = plain.front().digest;
  int64_t attempted = 0;
  size_t samples = 0;
  for (const std::vector<RepResult>* reps : {&plain, &traced}) {
    for (const RepResult& r : *reps) {
      attempted += r.ops;
      samples += static_cast<size_t>(r.samples);
      if (!r.check_error.empty()) {
        errors.push_back("invariant: " + r.check_error);
      }
      if (r.digest != digest) {
        errors.push_back("digest " + Hex(r.digest) + " differs from first repetition " +
                         Hex(digest));
      }
      if (reps == &traced &&
          std::memcmp(r.delta.v, traced.front().delta.v, sizeof(r.delta.v)) != 0) {
        errors.push_back("traced repetitions disagree on per-layer counts");
      }
    }
  }
  if (!expect.empty() && expect != Hex(digest)) {
    errors.push_back("digest " + Hex(digest) + " != recorded " + expect);
  }
  const bool correct = errors.empty();
  const int64_t failed = correct ? 0 : attempted;

  const std::string fingerprint = Fingerprint();
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              (unsigned long long)seed, seconds, trace ? 1 : 0);
  std::printf("fingerprint: %s\n", fingerprint.c_str());
  std::printf("callers=%d ops_per_rep=%lld reps=%zu traced_reps=%zu latency_samples=%zu "
              "wall_s=%.2f\n",
              Callers(workload), (long long)OpsPerRep(workload), plain.size(),
              traced.size(), samples, wall_s());
  std::printf("simulated_s_per_rep=%.3f\n", plain.front().sim_s);
  std::printf("digest=%s expected=%s correct=%s simulated_op_errors=%lld/%lld\n",
              Hex(digest).c_str(), expect.empty() ? "(not recorded)" : expect.c_str(),
              correct ? "true" : "false", (long long)plain.front().op_errors,
              (long long)plain.front().ops);
  for (const std::string& e : errors) {
    std::printf("error: %s\n", e.c_str());
  }
  // Per-repetition figures show how steady the box was during the run.
  std::printf("untraced repetitions (ops_per_s/setup_s):");
  for (const RepResult& r : plain) {
    std::printf(" %.0f/%.4f", OpsPerS(r), r.setup_s);
  }
  std::printf("\n");
  Values e2e = EndToEnd(plain, peak_rss_mib);
  PrintValues("end to end (untraced)", e2e);
  Values layer;
  if (trace) {
    layer = PerLayer(plain, traced, *ladder);
    PrintValues("per layer (traced run + ladder)", layer);
    std::printf("\n## host-time spans (self = total - children), %lld spans, "
                "%d ladder batches\n",
                (long long)spans.spans(), ladder->batches());
    for (const auto& [name, t] : spans.totals()) {
      std::printf("  %-24s n=%-8lld total_ms=%-12.3f self_ms=%.3f\n", name.c_str(),
                  (long long)t.count, t.total_ns / 1e6, (t.total_ns - t.child_ns) / 1e6);
    }
    if (!trace_out.empty()) {
      std::string meta = lv::StrFormat(
          "{\"workload\": \"%s\", \"seed\": %llu, \"digest\": \"%s\", \"fingerprint\": %s}",
          workload.c_str(), (unsigned long long)seed, Hex(digest).c_str(),
          fingerprint.c_str());
      if (spans.Write(trace_out, meta)) {
        std::printf("spans written to %s\n", trace_out.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      }
    }
  }
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"correct\": %s, \"attempted\": %lld, "
      "\"failed\": %lld, \"digest\": \"%s\", \"samples\": %zu, \"fingerprint\": %s, "
      "\"end_to_end\": %s, \"per_layer\": %s}\n",
      workload.c_str(), (unsigned long long)seed, correct ? "true" : "false",
      (long long)attempted, (long long)failed, Hex(digest).c_str(), samples,
      fingerprint.c_str(), ValuesJson(e2e).c_str(), ValuesJson(layer).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
