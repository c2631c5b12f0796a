#include "harness/workloads.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "src/base/strings.h"
#include "src/cluster/cluster.h"
#include "src/core/verify.h"
#include "src/faults/injector.h"

namespace perfbench {

namespace {

enum OpKind : int64_t { kDeploy, kRetire, kMigrate, kCreate, kDestroy };

const char* KindName(int64_t kind) {
  static const char* const kNames[] = {"op.deploy", "op.retire", "op.migrate", "op.create",
                                       "op.destroy"};
  return kNames[kind];
}

struct OpResult {
  int64_t kind = kDeploy;
  lv::ErrorCode code = lv::ErrorCode::kOk;
  int node = -1;
  int64_t domid = -1;
};

// One repetition: a fresh engine and topology, a closed loop of `callers`
// simulated callers issuing `ops` operations, then teardown and checks.
class Rep {
 public:
  Rep(uint64_t seed, int callers, int64_t ops)
      : seed_(seed), engine_(seed), rng_(seed ^ 0x9e3779b97f4a7c15ull), callers_(callers),
        target_ops_(ops) {}
  virtual ~Rep() = default;
  Rep(const Rep&) = delete;
  Rep& operator=(const Rep&) = delete;

  RepResult Run(TraceHooks* trace);

 protected:
  // Builds the topology and reaches the plateau (timed as set-up); false
  // when the plateau is never reached.
  virtual bool Setup() = 0;
  virtual LadderShape Shape() = 0;
  // Picks operation `seq` from the seeded stream and performs it.
  virtual sim::Co<OpResult> DoOp(int64_t seq) = 0;
  // Drains, retires everything, checks the invariants (first violation
  // into out->check_error) and folds the final state into the digest.
  virtual void Finish(RepResult* out) = 0;

  const uint64_t seed_;
  sim::Engine engine_;  // declared first: outlives everything built on it
  lv::Rng rng_;         // the workload's input stream, separate from the engine's
  Digest digest_;

 private:
  sim::Co<void> Caller(int lane);

  const int callers_;
  const int64_t target_ops_;
  TraceHooks* trace_ = nullptr;
  int64_t issued_ = 0;
  int64_t completed_ = 0;
  RepResult* out_ = nullptr;
  std::vector<double> op_us_;
};

sim::Co<void> Rep::Caller(int lane) {
  SpanLog* spans = trace_ != nullptr ? trace_->spans : nullptr;
  while (issued_ < target_ops_) {
    int64_t seq = issued_++;
    SpanLog::Handle span;
    if (spans != nullptr) {
      span = spans->Begin("op", 10 + lane);
    }
    lv::TimePoint sim_start = engine_.now();
    int64_t host_start = HostNs();
    OpResult r = co_await DoOp(seq);
    int64_t host_end = HostNs();
    if (spans != nullptr) {
      span.name = KindName(r.kind);
      spans->End(span);
      out_->queue_peak =
          std::max(out_->queue_peak, static_cast<int64_t>(engine_.pending_events()));
    } else {
      op_us_.push_back(static_cast<double>(host_end - host_start) / 1e3);
    }
    digest_.Add(seq);
    digest_.Add(r.kind);
    digest_.Add(static_cast<int64_t>(r.code));
    digest_.Add(r.node);
    digest_.Add(r.domid);
    digest_.Add((engine_.now() - sim_start).ns());
    if (r.code != lv::ErrorCode::kOk) {
      ++out_->op_errors;
    }
    out_->creates += r.kind == kDeploy || r.kind == kCreate || r.kind == kMigrate;
    out_->destroys += r.kind == kRetire || r.kind == kDestroy || r.kind == kMigrate;
    out_->cluster_ops += r.kind == kDeploy || r.kind == kRetire || r.kind == kMigrate;
    ++completed_;
  }
}

RepResult Rep::Run(TraceHooks* trace) {
  RepResult out;
  out_ = &out;
  trace_ = trace;
  SpanLog* spans = trace != nullptr ? trace->spans : nullptr;
  SpanLog::Handle span;
  if (spans != nullptr) {
    span = spans->Begin("setup", 1);
  }
  int64_t t0 = HostNs();
  const bool ready = Setup();
  out.setup_s = static_cast<double>(HostNs() - t0) / 1e9;
  if (spans != nullptr) {
    spans->End(span);
  }
  if (!ready) {
    out.check_error = "set-up stalled before the plateau";
    return out;
  }
  out.shape = Shape();

  op_us_.reserve(static_cast<size_t>(target_ops_));
  Counters before = Counters::Read(&engine_);
  const lv::TimePoint sim_start = engine_.now();
  Counters ladder;
  for (int c = 0; c < callers_; ++c) {
    engine_.Spawn(Caller(c));
  }
  int64_t timed_ns = 0;
  int64_t next_ladder = trace != nullptr ? trace->ladder_every : target_ops_;
  bool progressing = true;
  while (progressing && completed_ < target_ops_) {
    if (spans != nullptr) {
      span = spans->Begin("engine.drive", 1);
    }
    int64_t s = HostNs();
    progressing =
        Drive(engine_, [&] { return completed_ >= std::min(next_ladder, target_ops_); });
    timed_ns += HostNs() - s;
    if (spans != nullptr) {
      spans->End(span);
    }
    if (progressing && completed_ < target_ops_) {
      // Ladder batches run between drive calls, outside the timed region;
      // their side instances bump the shared registry, so their delta is
      // taken out of the workload's counts.
      span = spans->Begin("ladder", 2);
      Counters c0 = Counters::Read(nullptr);
      trace->ladder->Run(spans, &span);
      ladder += Counters::Read(nullptr) - c0;
      spans->End(span);
      next_ladder += trace->ladder_every;
    }
  }
  out.timed_s = static_cast<double>(timed_ns) / 1e9;
  out.sim_s = (engine_.now() - sim_start).secs();
  out.ops = completed_;
  out.samples = static_cast<int64_t>(op_us_.size());
  out.p50_us = Quantile(op_us_, 0.50);
  out.p99_us = Quantile(op_us_, 0.99);
  out.delta = Counters::Read(&engine_) - before - ladder;
  if (!progressing) {
    out.check_error = lv::StrFormat("operation stream stalled at %lld/%lld",
                                    (long long)completed_, (long long)target_ops_);
  } else {
    if (spans != nullptr) {
      span = spans->Begin("finish", 1);
    }
    Finish(&out);
    if (spans != nullptr) {
      spans->End(span);
    }
  }
  out.digest = digest_.value();
  return out;
}

// --- Cluster workloads (fleet_churn, chaos_heal) -----------------------------

struct ClusterConfig {
  int nodes = 4;
  lightvm::Mechanisms mechanisms = lightvm::Mechanisms::LightVm();
  int callers = 8;
  int plateau = 256;  // VMs deployed during set-up
  int64_t ops = 0;
  // Live-set band: below `low` the stream only deploys, above `high` it
  // only retires, in between it draws from the mix.
  int low = 0;
  int high = 0;
  double migrate_share = 0;
  double minority_share = 0;  // deploys of an image with no pooled shell
  int create_retries = 3;     // cluster::ClusterSpec::create_retries
  bool faults = false;        // ChaosPlan armed, health monitor on
  lv::Duration fault_horizon;
};

ClusterConfig FleetChurn() {
  ClusterConfig c;
  c.nodes = 4;
  c.mechanisms = lightvm::Mechanisms::LightVm();
  c.callers = 8;
  c.plateau = 256;
  c.ops = 20000;
  c.low = 192;
  c.high = 320;
  c.migrate_share = 0.1;
  c.minority_share = 0.15;
  return c;
}

// Deploy-only under injected create faults. Program defects shape this
// stream (see perfbench/README.md): a XenStore-mode retire that overlaps
// other work on its node, or follows a xenstored restart there, can wait
// forever for the back-end's "closed" event, so the stream issues no
// retires (everything is retired one by one at exit) and no xenstored
// restarts; recovery from node crashes can leak a guest's memory on some
// seeds, so no node crashes. Hotplug stalls are left out because their
// few very slow operations would decide op_host_us_p99 seed by seed.
ClusterConfig ChaosHeal() {
  ClusterConfig c;
  c.nodes = 6;
  c.mechanisms = lightvm::Mechanisms::ChaosXsSplit();
  c.mechanisms.xs_policy = xs::StorePolicy::kIndexed;
  c.callers = 16;
  c.plateau = 240;
  c.ops = 2400;
  c.low = std::numeric_limits<int>::max();  // below the band: always deploy
  c.high = std::numeric_limits<int>::max();
  // Two attempts per placement, so a burst of injected create faults can
  // exhaust them: the seed fixes how many deploys fail.
  c.create_retries = 2;
  c.faults = true;
  c.fault_horizon = lv::Duration::Millis(1500);
  return c;
}

// The fault plan: a fixed number of create-fault bursts of a fixed size;
// the seed draws only when and on which node each lands, so every seed
// stresses the retry path by the same amount.
faults::FaultPlan ChaosPlan(uint64_t seed, int nodes, lv::Duration horizon) {
  constexpr int kBursts = 3;
  constexpr int kFailuresPerBurst = 4;
  lv::Rng rng(seed);
  faults::FaultPlan plan;
  for (int i = 0; i < kBursts; ++i) {
    faults::FaultEvent ev;
    ev.at = lv::Duration::Nanos(rng.Uniform(0, horizon.ns() - 1));
    ev.kind = faults::FaultKind::kCreateFault;
    ev.node = static_cast<int>(rng.Uniform(0, nodes - 1));
    ev.count = kFailuresPerBurst;
    plan.events.push_back(ev);
  }
  plan.SortByTime();
  return plan;
}

class ClusterRep : public Rep {
 public:
  ClusterRep(uint64_t seed, ClusterConfig config)
      : Rep(seed, config.callers, config.ops), config_(config) {}

 private:
  bool Setup() override;
  LadderShape Shape() override;
  sim::Co<OpResult> DoOp(int64_t seq) override;
  void Finish(RepResult* out) override;
  sim::Co<int64_t> Fill();
  sim::Co<int64_t> RetireAll();

  ClusterConfig config_;
  std::unique_ptr<cluster::Cluster> cl_;
  std::unique_ptr<faults::FaultInjector> injector_;  // after cl_: its sinks use it
  std::vector<cluster::VmHandle> live_;  // live VMs no operation is touching
};

sim::Co<int64_t> ClusterRep::Fill() {
  for (int i = 0; i < config_.plateau; ++i) {
    toolstack::VmConfig config;
    config.name = lv::StrFormat("base%d", i);
    config.image = guests::DaytimeUnikernel();
    lv::Result<cluster::VmHandle> h = co_await cl_->Deploy(std::move(config), true);
    if (h.ok()) {
      live_.push_back(*h);
    }
  }
  co_return static_cast<int64_t>(live_.size());
}

bool ClusterRep::Setup() {
  cluster::ClusterSpec spec;
  spec.num_nodes = config_.nodes;
  spec.node = lightvm::HostSpec::Amd64Core();
  spec.mechanisms = config_.mechanisms;
  spec.create_retries = config_.create_retries;
  cl_ = std::make_unique<cluster::Cluster>(&engine_, spec,
                                           cluster::MakePolicy("least-loaded"));
  for (int n = 0; n < config_.nodes; ++n) {
    cl_->host(n).AddShellFlavor(guests::DaytimeUnikernel().memory, true, 8);
    cl_->host(n).PrefillShellPool();
  }
  if (config_.faults) {
    cl_->StartHealthMonitor();
  }
  if (!DriveTo(engine_, Fill()).has_value()) {
    return false;
  }
  if (!config_.faults) {
    return true;
  }
  cluster::Cluster* cl = cl_.get();
  faults::FaultTargets targets;
  targets.fail_creates = [cl](int node, int count) {
    cl->host(node).fault_hooks().fail_next_creates += count;
  };
  injector_ = std::make_unique<faults::FaultInjector>(
      &engine_, ChaosPlan(seed_, config_.nodes, config_.fault_horizon), std::move(targets));
  injector_->Arm();
  return true;
}

LadderShape ClusterRep::Shape() {
  LadderShape s;
  s.nodes = config_.nodes;
  s.node = lightvm::HostSpec::Amd64Core();
  s.mechanisms = config_.mechanisms;
  s.pooled = true;
  // The live set the stream holds on average: the plateau, or halfway
  // through a deploy-only stream's growth.
  s.live_vms = config_.plateau + (config_.low == std::numeric_limits<int>::max()
                                      ? static_cast<int>(config_.ops / 2)
                                      : 0);
  s.queue_depth = static_cast<int64_t>(engine_.pending_events());
  for (int n = 0; n < config_.nodes; ++n) {
    xs::Daemon* store = cl_->host(n).store();
    if (store != nullptr && store->store().num_nodes() > s.store_nodes) {
      s.store_domains = cl_->host(n).num_vms();
      s.store_nodes = store->store().num_nodes();
      s.store_watches = store->store().num_watches();
    }
  }
  return s;
}

sim::Co<OpResult> ClusterRep::DoOp(int64_t seq) {
  const int64_t avail = static_cast<int64_t>(live_.size());
  const double u = rng_.UniformReal(0.0, 1.0);
  int64_t kind = kRetire;
  if (avail == 0 || avail < config_.low) {
    kind = kDeploy;
  } else if (avail > config_.high) {
    kind = kRetire;
  } else if (u < config_.migrate_share) {
    kind = kMigrate;
  } else if (u < config_.migrate_share + (1.0 - config_.migrate_share) / 2) {
    kind = kDeploy;
  }
  if (kind == kDeploy) {
    toolstack::VmConfig config;
    config.name = lv::StrFormat("vm%lld", (long long)seq);
    config.image = rng_.Chance(config_.minority_share) ? guests::MinipythonUnikernel()
                                                       : guests::DaytimeUnikernel();
    lv::Result<cluster::VmHandle> h = co_await cl_->Deploy(std::move(config), true);
    if (!h.ok()) {
      co_return OpResult{kDeploy, h.code()};
    }
    live_.push_back(*h);
    co_return OpResult{kDeploy, lv::ErrorCode::kOk, h->node, h->domid};
  }
  const size_t idx = static_cast<size_t>(rng_.Uniform(0, avail - 1));
  const cluster::VmHandle vm = live_[idx];
  live_[idx] = live_.back();
  live_.pop_back();
  if (kind == kRetire) {
    lv::Status st = co_await cl_->Retire(vm);
    co_return OpResult{kRetire, st.code(), vm.node, vm.domid};
  }
  const int target =
      (vm.node + 1 + static_cast<int>(rng_.Uniform(0, config_.nodes - 2))) % config_.nodes;
  lv::Result<cluster::VmHandle> moved = co_await cl_->Migrate(vm, target);
  live_.push_back(moved.ok() ? *moved : vm);
  co_return OpResult{kMigrate, moved.code(), moved.ok() ? moved->node : vm.node,
                     moved.ok() ? moved->domid : vm.domid};
}

sim::Co<int64_t> ClusterRep::RetireAll() {
  int64_t failures = 0;
  for (int pass = 0; pass < 3 && cl_->total_vms() > 0; ++pass) {
    for (int n = 0; n < config_.nodes; ++n) {
      for (hv::DomainId domid : cl_->host(n).toolstack().TrackedDomains()) {
        lv::Status st = co_await cl_->Retire(cluster::VmHandle{n, domid});
        failures += !st.ok();
      }
    }
  }
  co_return failures;
}

void ClusterRep::Finish(RepResult* out) {
  if (injector_ != nullptr) {
    // Let the tail of the plan land before tearing down.
    bool landed = Drive(engine_, [&] {
      return injector_->injected() == static_cast<int64_t>(injector_->plan().size());
    });
    if (!landed) {
      out->check_error = "fault plan never finished";
      return;
    }
    out->faults_injected = injector_->injected();
  }
  int64_t retire_failures = DriveTo(engine_, RetireAll()).value_or(-1);
  if (retire_failures != 0 || cl_->total_vms() != 0) {
    out->check_error = lv::StrFormat("%lld retire failures, %lld VMs left",
                                     (long long)retire_failures,
                                     (long long)cl_->total_vms());
    return;
  }
  for (int n = 0; n < config_.nodes && out->check_error.empty(); ++n) {
    lv::Status ok = lightvm::VerifyNoLeakedResources(cl_->host(n));
    if (!ok.ok()) {
      out->check_error = lv::StrFormat("node %d: %s", n, ok.error().message.c_str());
    }
  }
  cluster::Cluster::Drift drift = cl_->AdmissionDrift();
  if (out->check_error.empty() && (drift.memory.count() != 0 || drift.vcpus != 0)) {
    out->check_error = lv::StrFormat("admission drift: %lld bytes, %lld vcpus",
                                     (long long)drift.memory.count(), (long long)drift.vcpus);
  }
  if (out->check_error.empty() && cl_->invariant_failures() != 0) {
    out->check_error = lv::StrFormat("%lld health-sweep invariant failures",
                                     (long long)cl_->invariant_failures());
  }
  for (int64_t v : {cl_->vms_deployed(), cl_->deploy_failures(), cl_->admission_rejects(),
                    cl_->migrations(), cl_->node_failures(), cl_->vms_lost(),
                    cl_->vms_recovered(), cl_->vms_unrecovered(), cl_->deploy_retries(),
                    cl_->deploy_replacements()}) {
    digest_.Add(v);
  }
  for (int n = 0; n < config_.nodes; ++n) {
    lightvm::NodeApi& api = cl_->host(n).node();
    digest_.Add(api.jobs_started());
    digest_.Add(api.jobs_completed());
    digest_.Add(api.jobs_failed());
  }
  if (injector_ != nullptr) {
    for (const std::string& line : injector_->log()) {
      digest_.Add(line);
    }
  }
}

// --- xl_store -----------------------------------------------------------------

constexpr int kXlPlateau = 500;
constexpr int64_t kXlOps = 1200;
constexpr double kXlTinyxShare = 0.3;

class XlStoreRep : public Rep {
 public:
  explicit XlStoreRep(uint64_t seed) : Rep(seed, 1, kXlOps) {}

 private:
  bool Setup() override;
  LadderShape Shape() override;
  sim::Co<OpResult> DoOp(int64_t seq) override;
  void Finish(RepResult* out) override;
  sim::Co<int64_t> Fill();
  sim::Co<int64_t> DestroyAll();
  toolstack::VmConfig NextConfig(const std::string& name);

  std::unique_ptr<lightvm::Host> host_;
  std::vector<hv::DomainId> live_;
};

toolstack::VmConfig XlStoreRep::NextConfig(const std::string& name) {
  toolstack::VmConfig config;
  config.name = name;
  config.image =
      rng_.Chance(kXlTinyxShare) ? guests::TinyxNoop() : guests::DaytimeUnikernel();
  return config;
}

sim::Co<int64_t> XlStoreRep::Fill() {
  for (int i = 0; i < kXlPlateau; ++i) {
    lv::Result<hv::DomainId> id =
        co_await host_->CreateAndBoot(NextConfig(lv::StrFormat("base%d", i)));
    if (id.ok()) {
      live_.push_back(*id);
    }
  }
  co_return static_cast<int64_t>(live_.size());
}

bool XlStoreRep::Setup() {
  host_ = std::make_unique<lightvm::Host>(&engine_, lightvm::HostSpec::Xeon4Core(),
                                          lightvm::Mechanisms::Xl());
  return DriveTo(engine_, Fill()).has_value();
}

LadderShape XlStoreRep::Shape() {
  LadderShape s;
  s.nodes = 1;
  s.node = lightvm::HostSpec::Xeon4Core();
  s.mechanisms = lightvm::Mechanisms::Xl();
  s.live_vms = kXlPlateau;
  s.queue_depth = static_cast<int64_t>(engine_.pending_events());
  s.store_domains = host_->num_vms();
  s.store_nodes = host_->store()->store().num_nodes();
  s.store_watches = host_->store()->store().num_watches();
  return s;
}

sim::Co<OpResult> XlStoreRep::DoOp(int64_t seq) {
  // Destroy a seeded-random guest, then create a fresh one: the live set
  // stays at the plateau, and removal cost shows beside creation cost.
  if (seq % 2 == 0 && !live_.empty()) {
    const size_t idx = static_cast<size_t>(
        rng_.Uniform(0, static_cast<int64_t>(live_.size()) - 1));
    const hv::DomainId domid = live_[idx];
    live_[idx] = live_.back();
    live_.pop_back();
    lv::Status st = co_await host_->DestroyVm(domid);
    co_return OpResult{kDestroy, st.code(), 0, domid};
  }
  lv::Result<hv::DomainId> id =
      co_await host_->CreateAndBoot(NextConfig(lv::StrFormat("vm%lld", (long long)seq)));
  if (!id.ok()) {
    co_return OpResult{kCreate, id.code()};
  }
  live_.push_back(*id);
  co_return OpResult{kCreate, lv::ErrorCode::kOk, 0, *id};
}

sim::Co<int64_t> XlStoreRep::DestroyAll() {
  int64_t failures = 0;
  for (hv::DomainId domid : host_->toolstack().TrackedDomains()) {
    lv::Status st = co_await host_->DestroyVm(domid);
    failures += !st.ok();
  }
  co_return failures;
}

void XlStoreRep::Finish(RepResult* out) {
  const hv::Hypervisor::Stats hv = host_->hv().stats();
  const xs::Daemon::Stats store = host_->store()->stats();
  for (int64_t v : {hv.hypercalls, hv.domains_created, hv.domains_destroyed, store.ops,
                    store.watch_events, store.conflicts, host_->num_vms()}) {
    digest_.Add(v);
  }
  int64_t failures = DriveTo(engine_, DestroyAll()).value_or(-1);
  if (failures != 0 || host_->num_vms() != 0) {
    out->check_error = lv::StrFormat("%lld destroy failures, %lld VMs left",
                                     (long long)failures, (long long)host_->num_vms());
    return;
  }
  lv::Status ok = lightvm::VerifyNoLeakedResources(*host_);
  if (!ok.ok()) {
    out->check_error = ok.error().message;
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"fleet_churn", "xl_store", "chaos_heal"};
  return kNames;
}

int Callers(const std::string& workload) {
  if (workload == "xl_store") {
    return 1;
  }
  return workload == "chaos_heal" ? ChaosHeal().callers : FleetChurn().callers;
}

int64_t OpsPerRep(const std::string& workload) {
  if (workload == "xl_store") {
    return kXlOps;
  }
  return workload == "chaos_heal" ? ChaosHeal().ops : FleetChurn().ops;
}

RepResult RunRep(const std::string& workload, uint64_t seed, TraceHooks* trace) {
  std::unique_ptr<Rep> rep;
  if (workload == "xl_store") {
    rep = std::make_unique<XlStoreRep>(seed);
  } else if (workload == "chaos_heal") {
    rep = std::make_unique<ClusterRep>(seed, ChaosHeal());
  } else {
    rep = std::make_unique<ClusterRep>(seed, FleetChurn());
  }
  return rep->Run(trace);
}

}  // namespace perfbench
