#include "src/scenario/runner.h"

#include <algorithm>
#include <optional>
#include <ostream>
#include <tuple>

#include "src/base/stats.h"
#include "src/base/strings.h"
#include "src/cluster/cluster.h"
#include "src/container/container.h"
#include "src/core/verify.h"
#include "src/faults/injector.h"
#include "src/metrics/export.h"
#include "src/metrics/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/slo.h"
#include "src/sim/run.h"
#include "src/toolstack/config.h"
#include "src/trace/export.h"
#include "src/trace/trace.h"

namespace scenario {

namespace {

using lv::Err;
using lv::ErrorCode;

// Quantile of `s`, or 0 for a run that recorded none (every deploy failed,
// no VM needed recovery).
double QuantileOr0(const lv::Samples& s, double p) {
  return s.empty() ? 0.0 : s.Quantile(p);
}

// --- Fault plans ------------------------------------------------------------

// Materializes the spec's `faults` section: explicit events plus (for
// clusters) the seeded random plan, merged and time-sorted.
faults::FaultPlan BuildFaultPlan(const Spec& spec) {
  const FaultsConfig& f = *spec.faults;
  faults::FaultPlan plan = f.plan;
  if (f.random_events > 0) {
    faults::FaultPlan random = faults::FaultPlan::Random(
        f.random_seed.value_or(spec.seed), spec.topology.nodes, f.random_events,
        f.random_horizon);
    plan.events.insert(plan.events.end(), random.events.begin(),
                       random.events.end());
  }
  plan.SortByTime();
  return plan;
}

// --- Churn storm ------------------------------------------------------------

struct ChurnOp {
  int op = 0;
  int kind = 0;  // 0 = create, 1 = destroy
  double ms = 0.0;
};

struct ChurnState {
  sim::Engine* engine = nullptr;
  lightvm::Host* host = nullptr;
  const WorkloadConfig* w = nullptr;
  guests::GuestImage image;
  lv::Rng rng{1};
  int next_op = 0;
  int done_ops = 0;
  int64_t creates = 0;
  int64_t destroys = 0;
  int64_t create_failures = 0;
  int64_t destroy_failures = 0;
  std::vector<hv::DomainId> live;
  lv::Samples create_ms;
  lv::Samples destroy_ms;
  std::vector<ChurnOp> oplog;
};

// One churn worker: picks the next operation index and decides create vs
// destroy. Destroy victims are removed from `live` before the first
// suspension point, so concurrent workers never race on one domain (the
// NodeApi per-domain exclusion would reject the loser anyway; removing
// first keeps the storm conflict-free and the accounting simple).
sim::Co<void> ChurnWorker(ChurnState* st) {
  while (st->next_op < st->w->operations) {
    int op = st->next_op++;
    bool destroy =
        !st->live.empty() &&
        (static_cast<int>(st->live.size()) >= st->w->max_live ||
         st->rng.Chance(st->w->destroy_fraction));
    lv::TimePoint t0 = st->engine->now();
    if (destroy) {
      size_t idx = static_cast<size_t>(
          st->rng.Uniform(0, static_cast<int64_t>(st->live.size()) - 1));
      hv::DomainId domid = st->live[idx];
      st->live.erase(st->live.begin() + static_cast<long>(idx));
      lv::Status status = co_await st->host->node().SubmitDestroy(domid).Get();
      double ms = (st->engine->now() - t0).ms();
      if (status.ok()) {
        ++st->destroys;
        st->destroy_ms.Add(ms);
      } else {
        ++st->destroy_failures;
      }
      st->oplog.push_back({op, 1, ms});
    } else {
      toolstack::VmConfig config;
      config.name = lv::StrFormat("churn%d", op);
      config.image = st->image;
      auto domid = co_await st->host->node().SubmitCreate(std::move(config),
                                                          /*wait_boot=*/true)
                       .Get();
      double ms = (st->engine->now() - t0).ms();
      if (domid.ok()) {
        st->live.push_back(*domid);
        ++st->creates;
        st->create_ms.Add(ms);
      } else {
        ++st->create_failures;
      }
      st->oplog.push_back({op, 0, ms});
    }
    ++st->done_ops;
  }
}

// --- Fleet deploy -----------------------------------------------------------

struct FleetState {
  sim::Engine* engine = nullptr;
  cluster::Cluster* cl = nullptr;
  const WorkloadConfig* w = nullptr;
  guests::GuestImage image;
  int next = 0;
  int done = 0;
  bool failed = false;
  // Chaos runs keep going when a deploy fails (nodes are being crashed under
  // the fleet on purpose); failures are counted instead of aborting.
  bool tolerate_failures = false;
  int64_t deploys_failed = 0;
  std::string error;
  std::vector<int> node;
  std::vector<double> deploy_ms;
};

sim::Co<void> FleetWorker(FleetState* st) {
  while (st->next < st->w->vms && !st->failed) {
    int i = st->next++;
    toolstack::VmConfig config;
    config.name = lv::StrFormat("fleet%d", i);
    config.image = st->image;
    lv::TimePoint t0 = st->engine->now();
    auto handle = co_await st->cl->Deploy(std::move(config), /*wait_boot=*/true);
    if (!handle.ok()) {
      if (st->tolerate_failures) {
        ++st->deploys_failed;
        ++st->done;
        continue;
      }
      st->failed = true;
      st->error = lv::StrFormat("deploy of vm %d failed: %s", i,
                                handle.error().message.c_str());
      ++st->done;
      co_return;
    }
    st->node[static_cast<size_t>(i)] = handle->node;
    st->deploy_ms[static_cast<size_t>(i)] = (st->engine->now() - t0).ms();
    ++st->done;
  }
}

class Runner {
 public:
  Runner(const Spec& spec, const RunOptions& options, std::ostream& out,
         PointFn point_fn)
      : spec_(spec), options_(options), out_(out), point_fn_(std::move(point_fn)) {}

  lv::Status Run() {
    auto host_spec = ResolveHostSpec(spec_.topology.host);
    if (!host_spec.ok()) {
      return host_spec.error();
    }
    host_spec_ = *host_spec;
    auto mechanisms = MechanismsByName(spec_.mechanisms);
    if (!mechanisms.ok()) {
      return mechanisms.error();
    }
    mechanisms_ = *mechanisms;
    mechanisms_.xs_policy = spec_.xenstore_policy;

    const bool tracing = !options_.trace_out.empty();
    if (tracing) {
      trace::Tracer::Get().Enable();
    }
    if (!options_.flight_out.empty()) {
      // Arms the post-mortem path: any MaybeDump() (invariant violation,
      // double deploy failure, SLO miss below) writes the rings here.
      obs::FlightRecorder::Get().set_dump_path(options_.flight_out);
    }

    out_ << "# scenario: " << spec_.name;
    if (!spec_.title.empty()) {
      out_ << " — " << spec_.title;
    }
    out_ << "\n";
    out_ << lv::StrFormat(
        "# seed=%llu mechanisms=%s workload=%s host=%s nodes=%d",
        (unsigned long long)spec_.seed, spec_.mechanisms.c_str(),
        WorkloadKindName(spec_.workload.kind), spec_.topology.host.preset.c_str(),
        spec_.topology.nodes);
    // Only annotate the non-default policy: default-policy stdout must stay
    // byte-identical with the pre-StorePolicy baselines.
    if (spec_.xenstore_policy != xs::StorePolicy::kLegacy) {
      out_ << lv::StrFormat(" xenstore_policy=%s",
                            xs::StorePolicyName(spec_.xenstore_policy));
    }
    out_ << "\n";

    lv::Status status = lv::Status::Ok();
    switch (spec_.workload.kind) {
      case WorkloadKind::kSequentialBoots:
        status = RunSequentialBoots();
        break;
      case WorkloadKind::kChurnStorm:
        status = RunChurnStorm();
        break;
      case WorkloadKind::kFleetDeploy:
        status = RunFleetDeploy();
        break;
    }

    if (tracing) {
      trace::Tracer::Get().Disable();
      lv::Status written =
          trace::WriteChromeTraceFile(trace::Tracer::Get(), options_.trace_out);
      if (status.ok() && !written.ok()) {
        status = written;
      }
    }
    if (!options_.metrics_out.empty()) {
      lv::Status written =
          metrics::WriteJsonFile(metrics::Registry::Get(), options_.metrics_out);
      if (status.ok() && !written.ok()) {
        status = written;
      }
    }
    if (status.ok() && options_.enforce_slo && spec_.slo.has_value()) {
      status = CheckSlos();
    }
    if (!status.ok()) {
      obs::FlightRecorder::Get().MaybeDump();
    }
    return status;
  }

  // Evaluates the spec's `slo` section against the always-on metrics
  // registry, prints the verdict table and fails on the first violated
  // bound. Only reached under --check, so plain runs print nothing here.
  lv::Status CheckSlos() {
    std::vector<obs::SloResult> results =
        obs::EvaluateSlos(*spec_.slo, metrics::Registry::Get());
    out_ << "\n## slo\n";
    std::vector<std::pair<std::string, double>> row;
    std::string violated;
    for (const obs::SloResult& r : results) {
      out_ << lv::StrFormat("%-20s %12.3f <= %-12.3f %s\n", r.key.c_str(),
                            r.value, r.bound, r.ok ? "ok" : "VIOLATED");
      row.emplace_back(r.key, r.value);
      row.emplace_back(r.key + "_bound", r.bound);
      row.emplace_back(r.key + "_ok", r.ok ? 1.0 : 0.0);
      if (!r.ok && violated.empty()) {
        violated = lv::StrFormat("slo violated: %s = %.3f > %.3f",
                                 r.key.c_str(), r.value, r.bound);
      }
    }
    Point("slo", row);
    if (!violated.empty()) {
      return Err(ErrorCode::kInternal, violated);
    }
    return lv::Status::Ok();
  }

 private:
  void Point(const std::string& series,
             const std::vector<std::pair<std::string, double>>& row) {
    if (point_fn_) {
      point_fn_(series, row);
    }
  }

  // Sequential-boots builds a fresh engine per series (matching the fig*
  // binaries). Each fresh engine restarts simulated time at zero, so
  // re-base the tracer's clock first: the exported file keeps every
  // epoch's events in one monotonic simulated-time domain.
  void NewEngineEpoch() {
    if (!options_.trace_out.empty()) {
      trace::Tracer::Get().BeginEpoch();
    }
  }

  // Lets background activity kicked off by the last measured operation —
  // chiefly shell-pool refills — run to a quiet point so their spans close
  // before the engine is torn down; an exported trace must not end with
  // open spans. Bounded because guests with periodic services keep the
  // event queue non-empty forever. All measurements are captured before
  // this runs, so it can only affect the exported trace/metrics tails.
  void Settle(sim::Engine& engine) {
    sim::RunUntilCondition(engine, [] { return false; },
                           lv::Duration::Seconds(30));
  }

  // Chaos reporting (only emitted when the spec has a `faults` section, so
  // fault-free runs stay byte-identical with their committed baselines).
  void PrintFaultLog(const faults::FaultInjector& injector) {
    out_ << lv::StrFormat("\n## faults (%lld injected)\n",
                          (long long)injector.injected());
    for (const std::string& line : injector.log()) {
      if (!line.empty()) {  // unfired events hold empty pre-sized slots
        out_ << line << "\n";
      }
    }
  }

  void PrintLeakCheck(lightvm::Host& host, int node) {
    lv::Status ok = lightvm::VerifyNoLeakedResources(host);
    out_ << lv::StrFormat("leak_check node%d: %s\n", node,
                          ok.ok() ? "ok" : ok.error().message.c_str());
  }

  void SetupShellPool(lightvm::Host& host) {
    if (!spec_.shell_pool.has_value()) {
      return;
    }
    const ShellPoolConfig& pool = *spec_.shell_pool;
    auto image = toolstack::ImageByName(pool.image);
    LV_CHECK(image.ok());  // validated at parse time
    host.AddShellFlavor(image->memory, image->wants_net, pool.target);
    host.PrefillShellPool();
  }

  lv::Status RunSequentialBoots() {
    for (const GuestGroupConfig& group : spec_.workload.guests) {
      if (group.runtime.empty()) {
        RunVmGroup(group);
      } else if (group.runtime == "docker") {
        RunDockerGroup(group);
      } else {
        RunProcessGroup(group);
      }
    }
    return lv::Status::Ok();
  }

  void RunVmGroup(const GuestGroupConfig& group) {
    NewEngineEpoch();
    sim::Engine engine(spec_.seed);
    lightvm::Host host(&engine, host_spec_, mechanisms_);
    SetupShellPool(host);
    auto image = toolstack::ImageByName(group.image);
    LV_CHECK(image.ok());  // validated at parse time
    out_ << lv::StrFormat("\n## %s (%s, up to %d guests)\n", group.series.c_str(),
                          group.image.c_str(), group.count);
    out_ << lv::StrFormat("%-8s %-14s %s\n", "n", "create_ms", "boot_ms");
    for (int i = 1; i <= group.count; ++i) {
      toolstack::VmConfig config;
      config.name = lv::StrFormat("%s%d", group.name_prefix.c_str(), i);
      config.image = *image;
      lightvm::CreateTiming t = lightvm::CreateBootTimed(engine, host, std::move(config));
      if (!t.ok) {
        out_ << lv::StrFormat("# stopped at n=%d (%s)\n", i, t.error.c_str());
        break;
      }
      Point(group.series, {{"n", static_cast<double>(i)},
                           {"create_ms", t.create_ms},
                           {"boot_ms", t.boot_ms}});
      if (lv::SampleRow(i, group.count, spec_.sample_points)) {
        out_ << lv::StrFormat("%-8d %-14.2f %.2f\n", i, t.create_ms, t.boot_ms);
      }
    }
    Settle(engine);
  }

  void RunDockerGroup(const GuestGroupConfig& group) {
    NewEngineEpoch();
    sim::Engine engine(spec_.seed);
    sim::CpuScheduler cpu(&engine, host_spec_.cores);
    hv::MemoryPool memory(host_spec_.memory);
    container::DockerRuntime docker(&engine, &memory);
    sim::ExecCtx ctx{&cpu, 0, sim::kHostOwner};
    out_ << lv::StrFormat("\n## %s (docker, up to %d containers)\n",
                          group.series.c_str(), group.count);
    out_ << lv::StrFormat("%-8s %s\n", "n", "run_ms");
    for (int i = 1; i <= group.count; ++i) {
      lv::TimePoint t0 = engine.now();
      auto id = sim::RunToCompletion(engine,
                                     docker.Run(ctx, container::MinimalContainer()));
      if (!id.ok()) {
        out_ << lv::StrFormat("# stopped at n=%d (%s)\n", i,
                              lv::ErrorCodeName(id.code()));
        break;
      }
      double run_ms = (engine.now() - t0).ms();
      Point(group.series, {{"n", static_cast<double>(i)}, {"run_ms", run_ms}});
      if (lv::SampleRow(i, group.count, spec_.sample_points)) {
        out_ << lv::StrFormat("%-8d %.2f\n", i, run_ms);
      }
    }
  }

  void RunProcessGroup(const GuestGroupConfig& group) {
    NewEngineEpoch();
    sim::Engine engine(spec_.seed);
    sim::CpuScheduler cpu(&engine, host_spec_.cores);
    hv::MemoryPool memory(host_spec_.memory);
    container::ProcessRuntime procs(&engine, &memory);
    sim::ExecCtx ctx{&cpu, 0, sim::kHostOwner};
    out_ << lv::StrFormat("\n## %s (fork/exec, up to %d processes)\n",
                          group.series.c_str(), group.count);
    out_ << lv::StrFormat("%-8s %s\n", "n", "fork_exec_ms");
    for (int i = 1; i <= group.count; ++i) {
      lv::TimePoint t0 = engine.now();
      (void)sim::RunToCompletion(engine, procs.ForkExec(ctx));
      double ms = (engine.now() - t0).ms();
      Point(group.series, {{"n", static_cast<double>(i)}, {"fork_exec_ms", ms}});
      if (lv::SampleRow(i, group.count, spec_.sample_points)) {
        out_ << lv::StrFormat("%-8d %.2f\n", i, ms);
      }
    }
  }

  lv::Status RunChurnStorm() {
    NewEngineEpoch();
    const WorkloadConfig& w = spec_.workload;
    sim::Engine engine(spec_.seed);
    lightvm::Host host(&engine, host_spec_, mechanisms_);
    SetupShellPool(host);
    auto image = toolstack::ImageByName(w.image);
    LV_CHECK(image.ok());  // validated at parse time

    ChurnState st;
    st.engine = &engine;
    st.host = &host;
    st.w = &w;
    st.image = *image;
    st.rng = lv::Rng(spec_.seed);

    // Declarative fault injection (single-node kinds only; the parser
    // rejects node-crash/reboot/partition for one-node topologies).
    std::optional<faults::FaultInjector> injector;
    if (spec_.faults.has_value()) {
      injector.emplace(&engine, BuildFaultPlan(spec_), host.fault_targets());
      injector->Arm();
    }

    out_ << lv::StrFormat(
        "\n## churn storm (%d ops, concurrency %d, max_live %d, "
        "destroy_fraction %.2f)\n",
        w.operations, w.concurrency, w.max_live, w.destroy_fraction);

    lv::TimePoint start = engine.now();
    for (int i = 0; i < w.concurrency; ++i) {
      engine.Spawn(ChurnWorker(&st));
    }
    bool finished =
        sim::RunUntilCondition(engine, [&] { return st.done_ops >= w.operations; },
                               lv::Duration::Seconds(36000));
    if (!finished) {
      return Err(ErrorCode::kInternal,
                 lv::StrFormat("churn storm stalled at %d/%d operations",
                               st.done_ops, w.operations));
    }
    double makespan_s = (engine.now() - start).secs();
    Settle(engine);

    std::sort(st.oplog.begin(), st.oplog.end(),
              [](const ChurnOp& a, const ChurnOp& b) { return a.op < b.op; });
    out_ << lv::StrFormat("%-8s %-8s %s\n", "op", "kind", "ms");
    int total = static_cast<int>(st.oplog.size());
    for (int i = 0; i < total; ++i) {
      const ChurnOp& op = st.oplog[static_cast<size_t>(i)];
      Point("ops", {{"op", static_cast<double>(op.op)},
                    {"kind", static_cast<double>(op.kind)},
                    {"ms", op.ms}});
      if (lv::SampleRow(i + 1, total, spec_.sample_points)) {
        out_ << lv::StrFormat("%-8d %-8s %.2f\n", op.op,
                              op.kind == 0 ? "create" : "destroy", op.ms);
      }
    }

    out_ << lv::StrFormat(
        "creates=%lld destroys=%lld create_failures=%lld destroy_failures=%lld "
        "live=%lld\n",
        (long long)st.creates, (long long)st.destroys,
        (long long)st.create_failures, (long long)st.destroy_failures,
        (long long)host.num_vms());
    out_ << lv::StrFormat("create_ms: p50=%.2f p99=%.2f  destroy_ms: p50=%.2f "
                          "p99=%.2f  makespan_s=%.2f\n",
                          QuantileOr0(st.create_ms, 0.5), QuantileOr0(st.create_ms, 0.99),
                          QuantileOr0(st.destroy_ms, 0.5), QuantileOr0(st.destroy_ms, 0.99),
                          makespan_s);
    Point("summary", {{"create_p50_ms", QuantileOr0(st.create_ms, 0.5)},
                      {"create_p99_ms", QuantileOr0(st.create_ms, 0.99)},
                      {"destroy_p50_ms", QuantileOr0(st.destroy_ms, 0.5)},
                      {"destroy_p99_ms", QuantileOr0(st.destroy_ms, 0.99)},
                      {"makespan_s", makespan_s},
                      {"creates", static_cast<double>(st.creates)},
                      {"destroys", static_cast<double>(st.destroys)},
                      {"failures", static_cast<double>(st.create_failures +
                                                       st.destroy_failures)}});
    if (injector.has_value()) {
      PrintFaultLog(*injector);
      const faults::FaultHooks& hooks = host.fault_hooks();
      int64_t xs_restarts =
          host.store() != nullptr ? host.store()->stats().restarts : 0;
      out_ << lv::StrFormat(
          "injected_create_faults=%lld injected_hotplug_stalls=%lld "
          "xs_restarts=%lld\n",
          (long long)hooks.injected_create_failures,
          (long long)hooks.injected_hotplug_stalls, (long long)xs_restarts);
      PrintLeakCheck(host, 0);
      Point("faults",
            {{"injected", static_cast<double>(injector->injected())},
             {"create_faults", static_cast<double>(hooks.injected_create_failures)},
             {"hotplug_stalls", static_cast<double>(hooks.injected_hotplug_stalls)},
             {"xs_restarts", static_cast<double>(xs_restarts)}});
    }
    return lv::Status::Ok();
  }

  lv::Status RunFleetDeploy() {
    const WorkloadConfig& w = spec_.workload;
    for (const std::string& policy : w.policies) {
      lv::Status status = RunFleetPolicy(policy);
      if (!status.ok()) {
        return status;
      }
    }
    return lv::Status::Ok();
  }

  lv::Status RunFleetPolicy(const std::string& policy_name) {
    NewEngineEpoch();
    const WorkloadConfig& w = spec_.workload;
    sim::Engine engine(spec_.seed);
    cluster::ClusterSpec cspec;
    cspec.num_nodes = spec_.topology.nodes;
    cspec.node = host_spec_;
    cspec.mechanisms = mechanisms_;
    auto policy = cluster::MakePolicy(policy_name);
    LV_CHECK(policy != nullptr);  // validated at parse time
    cluster::Cluster cl(&engine, cspec, std::move(policy));
    for (int n = 0; n < cspec.num_nodes; ++n) {
      SetupShellPool(cl.host(n));
    }
    auto image = toolstack::ImageByName(w.image);
    LV_CHECK(image.ok());

    // Declarative fault injection: arm the plan against this cluster and let
    // the health monitor detect, write off and evacuate what the plan kills.
    std::optional<faults::FaultInjector> injector;
    if (spec_.faults.has_value()) {
      cl.StartHealthMonitor();
      injector.emplace(&engine, BuildFaultPlan(spec_), cl.fault_targets());
      injector->Arm();
    }

    FleetState st;
    st.engine = &engine;
    st.cl = &cl;
    st.w = &w;
    st.image = *image;
    st.tolerate_failures = spec_.faults.has_value();
    st.node.assign(static_cast<size_t>(w.vms), -1);
    st.deploy_ms.assign(static_cast<size_t>(w.vms), 0.0);

    lv::TimePoint start = engine.now();
    for (int i = 0; i < w.concurrency; ++i) {
      engine.Spawn(FleetWorker(&st));
    }
    bool finished = sim::RunUntilCondition(
        engine, [&] { return st.done >= w.vms || st.failed; },
        lv::Duration::Seconds(36000));
    if (st.failed) {
      return Err(ErrorCode::kInternal, policy_name + ": " + st.error);
    }
    if (!finished) {
      return Err(ErrorCode::kInternal,
                 lv::StrFormat("%s: fleet stalled at %d/%d VMs",
                               policy_name.c_str(), st.done, w.vms));
    }
    double makespan_s = (engine.now() - start).secs();
    Settle(engine);
    // A chaos run reads its recovery ledger only once every planned fault
    // has fired, every crashed node has finished its settle pass and every
    // lost VM is booked as recovered or unrecovered. A fault planned past
    // the settle window must not be dropped silently.
    if (injector.has_value()) {
      auto drained = [&] {
        if (injector->injected() != static_cast<int64_t>(injector->plan().size())) {
          return false;
        }
        for (int n = 0; n < cspec.num_nodes; ++n) {
          if (cl.host(n).crashed() && !cl.host(n).crash_settled()) {
            return false;
          }
        }
        return cl.vms_lost() == cl.vms_recovered() + cl.vms_unrecovered();
      };
      if (!sim::RunUntilCondition(engine, drained, lv::Duration::Seconds(7200))) {
        return Err(ErrorCode::kInternal,
                   policy_name + ": recovery stalled: evacuation queue never drained");
      }
    }

    // Publish quiescent admission drift to the registry: the `slo` section's
    // admission_drift bound reads these gauges after the run.
    cluster::Cluster::Drift quiesced = cl.AdmissionDrift();
    metrics::GetGauge("cluster.drift_mem_bytes")
        .Set(static_cast<double>(quiesced.memory.count()));
    metrics::GetGauge("cluster.drift_vcpus")
        .Set(static_cast<double>(quiesced.vcpus));

    std::vector<int64_t> per_node(static_cast<size_t>(cspec.num_nodes), 0);
    lv::Samples lat;
    uint64_t placement_hash = 1469598103934665603ull;  // FNV offset basis.
    for (int i = 0; i < w.vms; ++i) {
      int node = st.node[static_cast<size_t>(i)];
      if (node >= 0) {
        // Failed deploys (chaos runs) keep node = -1: counted separately,
        // hashed all the same so reordering still shows up.
        ++per_node[static_cast<size_t>(node)];
        lat.Add(st.deploy_ms[static_cast<size_t>(i)]);
      }
      placement_hash ^= static_cast<uint64_t>(node) +
                        static_cast<uint64_t>(i) * 31ull;
      placement_hash *= 1099511628211ull;  // FNV prime.
      Point(policy_name, {{"i", static_cast<double>(i)},
                          {"node", static_cast<double>(node)},
                          {"deploy_ms", st.deploy_ms[static_cast<size_t>(i)]}});
    }
    int64_t jobs_started = 0;
    int64_t jobs_failed = 0;
    for (int n = 0; n < cspec.num_nodes; ++n) {
      jobs_started += cl.host(n).node().jobs_started();
      jobs_failed += cl.host(n).node().jobs_failed();
    }

    out_ << lv::StrFormat("\n## policy: %s\n", policy_name.c_str());
    out_ << "placement:";
    for (int n = 0; n < cspec.num_nodes; ++n) {
      out_ << lv::StrFormat(" node%d=%lld", n,
                            (long long)per_node[static_cast<size_t>(n)]);
    }
    out_ << lv::StrFormat("  hash=%016llx\n", (unsigned long long)placement_hash);
    const double lat_max = lat.empty() ? 0.0 : lat.max();
    out_ << lv::StrFormat("deploy_ms: p50=%.2f p90=%.2f p99=%.2f max=%.2f\n",
                          QuantileOr0(lat, 0.5), QuantileOr0(lat, 0.9),
                          QuantileOr0(lat, 0.99), lat_max);
    out_ << lv::StrFormat(
        "makespan_s=%.2f  vms=%lld  jobs_started=%lld  jobs_failed=%lld  "
        "admission_rejects=%lld\n",
        makespan_s, (long long)cl.total_vms(), (long long)jobs_started,
        (long long)jobs_failed, (long long)cl.admission_rejects());
    Point("summary", {{"deploy_p50_ms", QuantileOr0(lat, 0.5)},
                      {"deploy_p99_ms", QuantileOr0(lat, 0.99)},
                      {"deploy_max_ms", lat_max},
                      {"makespan_s", makespan_s},
                      {"vms", static_cast<double>(cl.total_vms())},
                      {"jobs_failed", static_cast<double>(jobs_failed)}});
    if (injector.has_value()) {
      PrintFaultLog(*injector);
      lv::Samples recovery;
      for (double ms : cl.recovery_ms()) {
        recovery.Add(ms);
      }
      cluster::Cluster::Drift drift = cl.AdmissionDrift();
      out_ << lv::StrFormat(
          "node_failures=%lld vms_lost=%lld vms_recovered=%lld "
          "vms_unrecovered=%lld deploys_failed=%lld\n",
          (long long)cl.node_failures(), (long long)cl.vms_lost(),
          (long long)cl.vms_recovered(), (long long)cl.vms_unrecovered(),
          (long long)st.deploys_failed);
      out_ << lv::StrFormat(
          "recovery_ms: p50=%.2f p99=%.2f  deploy_retries=%lld "
          "replacements=%lld\n",
          QuantileOr0(recovery, 0.5), QuantileOr0(recovery, 0.99),
          (long long)cl.deploy_retries(), (long long)cl.deploy_replacements());
      out_ << lv::StrFormat(
          "invariant_failures=%lld drift_mem_bytes=%lld drift_vcpus=%lld\n",
          (long long)cl.invariant_failures(), (long long)drift.memory.count(),
          (long long)drift.vcpus);
      for (int n = 0; n < cspec.num_nodes; ++n) {
        PrintLeakCheck(cl.host(n), n);
      }
      Point("faults",
            {{"injected", static_cast<double>(injector->injected())},
             {"node_failures", static_cast<double>(cl.node_failures())},
             {"vms_lost", static_cast<double>(cl.vms_lost())},
             {"vms_recovered", static_cast<double>(cl.vms_recovered())},
             {"vms_unrecovered", static_cast<double>(cl.vms_unrecovered())},
             {"recovery_p50_ms", QuantileOr0(recovery, 0.5)},
             {"recovery_p99_ms", QuantileOr0(recovery, 0.99)},
             {"deploy_retries", static_cast<double>(cl.deploy_retries())},
             {"replacements", static_cast<double>(cl.deploy_replacements())},
             {"invariant_failures", static_cast<double>(cl.invariant_failures())},
             {"drift_mem_bytes", static_cast<double>(drift.memory.count())},
             {"drift_vcpus", static_cast<double>(drift.vcpus)}});
    }
    return lv::Status::Ok();
  }

  const Spec& spec_;
  const RunOptions& options_;
  std::ostream& out_;
  PointFn point_fn_;
  lightvm::HostSpec host_spec_;
  lightvm::Mechanisms mechanisms_;
};

}  // namespace

lv::Status Run(const Spec& spec, const RunOptions& options, std::ostream& out,
               PointFn point_fn) {
  return Runner(spec, options, out, std::move(point_fn)).Run();
}

}  // namespace scenario
