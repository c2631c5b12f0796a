// Cluster control-plane tests: placement policies over synthetic node views,
// admission accounting, deploy/retire/migrate round-trips on real hosts, and
// the two cluster-level guarantees — concurrent deploys never oversubscribe a
// node, and same-seed runs place and time identically.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "src/base/strings.h"
#include "src/cluster/cluster.h"
#include "src/core/verify.h"
#include "src/faults/injector.h"
#include "src/metrics/metrics.h"
#include "src/obs/obs.h"
#include "src/sim/run.h"

namespace cluster {
namespace {

using lv::Bytes;
using lv::Duration;

toolstack::VmConfig DaytimeConfig(const std::string& name) {
  toolstack::VmConfig config;
  config.name = name;
  config.image = guests::DaytimeUnikernel();
  return config;
}

NodeView View(int index, int64_t vms, Bytes committed,
              Bytes budget = Bytes::GiB(1), int64_t active = 0) {
  NodeView v;
  v.index = index;
  v.memory_budget = budget;
  v.memory_committed = committed;
  v.vcpu_budget = 64;
  v.vcpus_committed = vms;
  v.vms = vms;
  v.active_creates = active;
  return v;
}

TEST(PlacementTest, AdmitsChecksBothBudgets) {
  toolstack::VmConfig config = DaytimeConfig("vm");
  NodeView v = View(0, 0, Bytes::MiB(0), Bytes::MiB(8));
  EXPECT_TRUE(Admits(v, config));
  v.memory_committed = Bytes::MiB(8) - config.image.memory + Bytes::KiB(1);
  EXPECT_FALSE(Admits(v, config));  // Memory budget exhausted.
  v.memory_committed = Bytes::MiB(0);
  v.vcpus_committed = v.vcpu_budget;
  EXPECT_FALSE(Admits(v, config));  // vCPU budget exhausted.
}

TEST(PlacementTest, FirstFitPacksLowestIndexWithBudget) {
  toolstack::VmConfig config = DaytimeConfig("vm");
  FirstFit policy;
  std::vector<NodeView> nodes = {View(0, 5, Bytes::MiB(900)),
                                 View(1, 0, Bytes::MiB(0)),
                                 View(2, 0, Bytes::MiB(0))};
  EXPECT_EQ(policy.Pick(nodes, config), 0);
  nodes[0].memory_committed = nodes[0].memory_budget;  // Node 0 full.
  EXPECT_EQ(policy.Pick(nodes, config), 1);
}

TEST(PlacementTest, LeastLoadedCountsInFlightCreates) {
  toolstack::VmConfig config = DaytimeConfig("vm");
  LeastLoaded policy;
  std::vector<NodeView> nodes = {View(0, 2, Bytes::MiB(8)),
                                 View(1, 1, Bytes::MiB(4), Bytes::GiB(1), 3),
                                 View(2, 3, Bytes::MiB(12))};
  // Node 1 has fewest running VMs but 3 creates in flight (load 4); node 0
  // wins with load 2.
  EXPECT_EQ(policy.Pick(nodes, config), 0);
  // Ties break toward the lower index.
  nodes[2].vms = 2;
  EXPECT_EQ(policy.Pick(nodes, config), 0);
}

TEST(PlacementTest, MemoryBalancePicksMostFree) {
  toolstack::VmConfig config = DaytimeConfig("vm");
  MemoryBalance policy;
  std::vector<NodeView> nodes = {View(0, 9, Bytes::MiB(600)),
                                 View(1, 1, Bytes::MiB(100)),
                                 View(2, 5, Bytes::MiB(300))};
  EXPECT_EQ(policy.Pick(nodes, config), 1);
  // A full node is never picked even if others are also tight.
  nodes[1].memory_committed = nodes[1].memory_budget;
  EXPECT_EQ(policy.Pick(nodes, config), 2);
}

TEST(PlacementTest, AllPoliciesReturnMinusOneWhenNothingAdmits) {
  toolstack::VmConfig config = DaytimeConfig("vm");
  std::vector<NodeView> nodes = {View(0, 0, Bytes::MiB(8), Bytes::MiB(8)),
                                 View(1, 0, Bytes::MiB(8), Bytes::MiB(8))};
  FirstFit ff;
  LeastLoaded ll;
  MemoryBalance mb;
  EXPECT_EQ(ff.Pick(nodes, config), -1);
  EXPECT_EQ(ll.Pick(nodes, config), -1);
  EXPECT_EQ(mb.Pick(nodes, config), -1);
}

TEST(PlacementTest, MakePolicyByName) {
  EXPECT_STREQ(MakePolicy("first-fit")->name(), "first-fit");
  EXPECT_STREQ(MakePolicy("least-loaded")->name(), "least-loaded");
  EXPECT_STREQ(MakePolicy("memory-balance")->name(), "memory-balance");
  EXPECT_EQ(MakePolicy("round-robin"), nullptr);
}

// Fingerprint of every metric in the registry: counters, gauges and
// histogram count/sum/min/max/buckets. The registry is single-threaded, so
// even histogram `sum` accumulates in event order and repeats exactly.
std::string MetricsFingerprint() {
  metrics::Snapshot snap = metrics::Registry::Get().TakeSnapshot();
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    out += lv::StrFormat("%s=%.17g\n", name.c_str(), value);
  }
  for (const auto& [name, value] : snap.gauges) {
    out += lv::StrFormat("%s=%.17g\n", name.c_str(), value);
  }
  for (const auto& h : snap.histograms) {
    out += lv::StrFormat("%s count=%lld sum=%.17g min=%.17g max=%.17g buckets=[",
                         h.name.c_str(), (long long)h.count, h.sum, h.min, h.max);
    for (const auto& b : h.buckets) {
      out += lv::StrFormat("(%.17g,%.17g,%lld)", b.lo, b.hi, (long long)b.count);
    }
    out += "]\n";
  }
  return out;
}

// Zeroes the process-wide observability state (registry values, flight
// rings, op-id counter) so two same-seed runs start from identical state.
void ResetObservability() {
  metrics::Registry::Get().ResetAll();
  obs::FlightRecorder::Get().Reset();
}

std::string FlightJson() {
  std::ostringstream flight;
  obs::FlightRecorder::Get().WriteJson(flight);
  return flight.str();
}

class ClusterTest : public ::testing::Test {
 public:
  // Small nodes keep the tests fast: 4-core Xeon, LightVM toolstack.
  ClusterSpec SmallSpec(int nodes) {
    ClusterSpec spec;
    spec.num_nodes = nodes;
    spec.node = lightvm::HostSpec::Xeon4Core();
    spec.mechanisms = lightvm::Mechanisms::LightVm();
    return spec;
  }

  void Prefill(Cluster& cl) {
    for (int n = 0; n < cl.num_nodes(); ++n) {
      cl.host(n).AddShellFlavor(guests::DaytimeUnikernel().memory, true, 4);
      cl.host(n).PrefillShellPool();
    }
  }

  template <typename T>
  T Run(sim::Co<T> co) {
    return sim::RunToCompletion(engine_, std::move(co));
  }

  sim::Engine engine_{1};
};

TEST_F(ClusterTest, DeployRetireRoundTripKeepsAccounting) {
  Cluster cl(&engine_, SmallSpec(2), std::make_unique<LeastLoaded>());
  Prefill(cl);
  std::vector<Bytes> baseline;
  for (int n = 0; n < 2; ++n) {
    baseline.push_back(cl.host(n).MemoryUsed());
  }

  std::vector<VmHandle> handles;
  for (int i = 0; i < 4; ++i) {
    auto h = Run(cl.Deploy(DaytimeConfig(lv::StrFormat("vm%d", i)), true));
    ASSERT_TRUE(h.ok()) << h.error().message;
    handles.push_back(*h);
  }
  // Least-loaded spreads 4 serial deploys 2/2.
  EXPECT_EQ(cl.host(0).num_vms(), 2);
  EXPECT_EQ(cl.host(1).num_vms(), 2);
  EXPECT_EQ(cl.total_vms(), 4);
  EXPECT_EQ(cl.vms_deployed(), 4);
  for (const NodeView& v : cl.views()) {
    EXPECT_EQ(v.memory_committed, guests::DaytimeUnikernel().memory * 2);
    EXPECT_EQ(v.vcpus_committed, 2);
    EXPECT_EQ(v.vms, 2);
    EXPECT_EQ(v.active_creates, 0);
  }

  for (const VmHandle& h : handles) {
    EXPECT_TRUE(Run(cl.Retire(h)).ok());
  }
  EXPECT_EQ(cl.total_vms(), 0);
  for (const NodeView& v : cl.views()) {
    EXPECT_EQ(v.memory_committed, Bytes());
    EXPECT_EQ(v.vcpus_committed, 0);
  }
  // No leaked domains or pages on either host.
  for (int n = 0; n < 2; ++n) {
    EXPECT_EQ(cl.host(n).MemoryUsed(), baseline[static_cast<size_t>(n)]);
    EXPECT_EQ(cl.host(n).hv().NumDomainsInState(hv::DomainState::kDead), 0);
  }
  // Retiring a stale handle fails cleanly.
  EXPECT_EQ(Run(cl.Retire(handles[0])).code(), lv::ErrorCode::kNotFound);
}

TEST_F(ClusterTest, MigrateRehomesVmAndMovesBudget) {
  Cluster cl(&engine_, SmallSpec(2), std::make_unique<FirstFit>());
  Prefill(cl);
  auto h = Run(cl.Deploy(DaytimeConfig("mig0"), true));
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->node, 0);  // First-fit lands on node 0.

  auto moved = Run(cl.Migrate(*h, 1));
  ASSERT_TRUE(moved.ok()) << moved.error().message;
  EXPECT_EQ(moved->node, 1);
  EXPECT_EQ(cl.migrations(), 1);
  EXPECT_EQ(cl.host(0).num_vms(), 0);
  EXPECT_EQ(cl.host(1).num_vms(), 1);
  EXPECT_EQ(cl.host(1).migration_daemon().migrations_received(), 1);
  EXPECT_EQ(cl.view(0).memory_committed, Bytes());
  EXPECT_EQ(cl.view(1).memory_committed, guests::DaytimeUnikernel().memory);

  EXPECT_TRUE(Run(cl.Retire(*moved)).ok());
  EXPECT_EQ(cl.total_vms(), 0);
}

TEST_F(ClusterTest, AdmissionRejectsWhenEveryNodeIsFull) {
  ClusterSpec spec = SmallSpec(2);
  // Budget for exactly three daytime unikernels per node.
  spec.memory_budget = guests::DaytimeUnikernel().memory * 3;
  Cluster cl(&engine_, spec, std::make_unique<FirstFit>());
  Prefill(cl);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(Run(cl.Deploy(DaytimeConfig(lv::StrFormat("vm%d", i)), true)).ok());
  }
  auto overflow = Run(cl.Deploy(DaytimeConfig("vm6"), true));
  EXPECT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.error().code, lv::ErrorCode::kUnavailable);
  EXPECT_EQ(cl.admission_rejects(), 1);
  EXPECT_EQ(cl.deploy_failures(), 1);
  EXPECT_EQ(cl.total_vms(), 6);
}

// The core admission guarantee: budgets are committed before the first
// suspension point, so even deploys launched in the same event cannot
// collectively oversubscribe a node.
TEST_F(ClusterTest, ConcurrentDeploysNeverOversubscribe) {
  ClusterSpec spec = SmallSpec(2);
  spec.memory_budget = guests::DaytimeUnikernel().memory * 2;  // 4 slots total.
  Cluster cl(&engine_, spec, std::make_unique<LeastLoaded>());
  Prefill(cl);

  int ok = 0;
  int rejected = 0;
  int done = 0;
  auto deploy = [&](int i) -> sim::Co<void> {
    auto h = co_await cl.Deploy(DaytimeConfig(lv::StrFormat("vm%d", i)), true);
    if (h.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(h.error().code, lv::ErrorCode::kUnavailable);
      ++rejected;
    }
    ++done;
  };
  for (int i = 0; i < 7; ++i) {
    engine_.Spawn(deploy(i));
  }
  ASSERT_TRUE(sim::RunUntilCondition(engine_, [&] { return done == 7; },
                                     Duration::Seconds(60)));
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(rejected, 3);
  EXPECT_EQ(cl.admission_rejects(), 3);
  EXPECT_EQ(cl.total_vms(), 4);
  for (const NodeView& v : cl.views()) {
    EXPECT_LE(v.memory_committed, v.memory_budget);
    EXPECT_EQ(v.vms, 2);
  }
}

// Same seed, same workload → identical placements, virtual time, metrics
// registry and flight-recorder rings.
TEST_F(ClusterTest, SameSeedRunsAreIdentical) {
  struct Outcome {
    std::vector<int> nodes;
    int64_t end_ns = 0;
    std::string metrics_text;
    std::string flight_json;
  };
  auto run_once = [this](uint64_t seed) {
    ResetObservability();
    sim::Engine engine(seed);
    ClusterSpec spec = SmallSpec(3);
    Cluster cl(&engine, spec, std::make_unique<LeastLoaded>());
    for (int n = 0; n < 3; ++n) {
      cl.host(n).AddShellFlavor(guests::DaytimeUnikernel().memory, true, 4);
      cl.host(n).PrefillShellPool();
    }
    std::vector<int> nodes(12, -1);
    int done = 0;
    auto deploy = [&](int i) -> sim::Co<void> {
      auto h = co_await cl.Deploy(DaytimeConfig(lv::StrFormat("vm%d", i)), true);
      LV_CHECK(h.ok());
      nodes[static_cast<size_t>(i)] = h->node;
      ++done;
    };
    for (int i = 0; i < 12; ++i) {
      engine.Spawn(deploy(i));
    }
    bool finished = sim::RunUntilCondition(engine, [&] { return done == 12; },
                                           Duration::Seconds(60));
    LV_CHECK(finished);
    return Outcome{nodes, engine.now().ns(), MetricsFingerprint(), FlightJson()};
  };
  for (uint64_t seed : {3ull, 7ull, 11ull}) {
    Outcome a = run_once(seed);
    Outcome b = run_once(seed);
    EXPECT_EQ(a.nodes, b.nodes) << "seed " << seed;
    EXPECT_EQ(a.end_ns, b.end_ns) << "seed " << seed;
    EXPECT_EQ(a.metrics_text, b.metrics_text) << "seed " << seed;
    EXPECT_EQ(a.flight_json, b.flight_json) << "seed " << seed;
  }
}

// --- Self-healing under fault injection -------------------------------------

// Everything one chaos run produces that determinism and invariants are
// asserted over.
struct ChaosOutcome {
  std::vector<int> placements;  // node per fleet VM, -1 = deploy failed
  std::string fault_log;
  std::vector<double> recovery_ms;
  int64_t ok_deploys = 0;
  int64_t node_failures = 0;
  int64_t vms_lost = 0;
  int64_t vms_recovered = 0;
  int64_t vms_unrecovered = 0;
  int64_t invariant_failures = 0;
  int64_t total_vms = 0;
  int64_t drift_mem = 0;
  int64_t drift_vcpus = 0;
  int64_t end_ns = 0;
  std::string metrics_text;
  std::string flight_json;
};

// Runs a fleet deploy over a small cluster with the health monitor on and a
// seeded random fault plan armed, then drives the engine until the plan has
// fully fired, every crashed node is written off, and the evacuation queue
// has drained.
ChaosOutcome RunChaos(uint64_t seed, int nodes, int vms, int events) {
  ResetObservability();
  sim::Engine engine(seed);
  ClusterSpec spec;
  spec.num_nodes = nodes;
  spec.node = lightvm::HostSpec::Xeon4Core();
  spec.mechanisms = lightvm::Mechanisms::LightVm();
  Cluster cl(&engine, spec, std::make_unique<LeastLoaded>());
  for (int n = 0; n < nodes; ++n) {
    cl.host(n).AddShellFlavor(guests::DaytimeUnikernel().memory, true, 4);
    cl.host(n).PrefillShellPool();
  }
  cl.StartHealthMonitor();

  faults::FaultPlan plan =
      faults::FaultPlan::Random(seed, nodes, events, Duration::Millis(150));
  faults::FaultInjector injector(&engine, std::move(plan), cl.fault_targets());
  injector.Arm();

  ChaosOutcome out;
  out.placements.assign(static_cast<size_t>(vms), -1);
  int next = 0;
  int done = 0;
  auto worker = [&]() -> sim::Co<void> {
    while (next < vms) {
      int i = next++;
      auto h = co_await cl.Deploy(DaytimeConfig(lv::StrFormat("vm%d", i)), true);
      if (h.ok()) {
        out.placements[static_cast<size_t>(i)] = h->node;
      }
      ++done;
    }
  };
  for (int w = 0; w < 4; ++w) {
    engine.Spawn(worker());
  }
  LV_CHECK(sim::RunUntilCondition(engine, [&] { return done >= vms; },
                                  Duration::Seconds(7200)));
  // Quiesce: all faults fired, every crash detected (written off) AND
  // settled (the settle pass destroys the dead node's VMs over simulated
  // time, so counting live VMs before it finishes would see both the
  // originals and their replacements), every evacuation either recovered or
  // given up.
  auto quiet = [&] {
    if (injector.injected() != static_cast<int64_t>(injector.plan().size())) {
      return false;
    }
    for (int n = 0; n < nodes; ++n) {
      const lightvm::Host& h = cl.host(n);
      if (h.crashed() && (cl.node_alive(n) || !h.crash_settled())) {
        return false;  // dead but not yet detected, or still tearing down
      }
    }
    return cl.vms_lost() == cl.vms_recovered() + cl.vms_unrecovered();
  };
  LV_CHECK(sim::RunUntilCondition(engine, quiet, Duration::Seconds(7200)));

  for (int n : out.placements) {
    if (n >= 0) {
      ++out.ok_deploys;
    }
  }
  out.fault_log = injector.plan().ToString();
  out.recovery_ms = cl.recovery_ms();
  out.node_failures = cl.node_failures();
  out.vms_lost = cl.vms_lost();
  out.vms_recovered = cl.vms_recovered();
  out.vms_unrecovered = cl.vms_unrecovered();
  out.invariant_failures = cl.invariant_failures();
  out.total_vms = cl.total_vms();
  Cluster::Drift drift = cl.AdmissionDrift();
  out.drift_mem = drift.memory.count();
  out.drift_vcpus = drift.vcpus;
  out.end_ns = engine.now().ns();
  out.metrics_text = MetricsFingerprint();
  out.flight_json = FlightJson();

  // Per-node leak invariants hold at quiescence whatever the plan did.
  for (int n = 0; n < nodes; ++n) {
    lv::Status ok = lightvm::VerifyNoLeakedResources(cl.host(n));
    EXPECT_TRUE(ok.ok()) << "seed " << seed << " node " << n << ": "
                         << ok.error().message << "\nplan:\n" << out.fault_log;
  }
  return out;
}

// Property sweep: whatever a random fault plan throws at the cluster, the
// control plane reconverges — every lost VM is either recovered or reported
// unrecovered, the admission ledger shows zero drift, the per-sweep
// invariant checks never fired, and the live VM count matches the books.
TEST_F(ClusterTest, RandomFaultPlansConvergeWithExactAccounting) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    ChaosOutcome out = RunChaos(seed, /*nodes=*/3, /*vms=*/30, /*events=*/6);
    EXPECT_EQ(out.invariant_failures, 0) << "seed " << seed << "\n" << out.fault_log;
    EXPECT_EQ(out.drift_mem, 0) << "seed " << seed;
    EXPECT_EQ(out.drift_vcpus, 0) << "seed " << seed;
    EXPECT_EQ(out.vms_lost, out.vms_recovered + out.vms_unrecovered)
        << "seed " << seed;
    EXPECT_EQ(out.total_vms, out.ok_deploys - out.vms_unrecovered)
        << "seed " << seed << "\n" << out.fault_log;
    EXPECT_GT(out.ok_deploys, 0) << "seed " << seed;
  }
}

// Same seed + same plan → byte-identical everything: fault log, placements,
// recovery latencies, final virtual time, metrics registry, flight rings.
TEST_F(ClusterTest, ChaosRunsAreByteIdenticalAcrossRuns) {
  for (uint64_t seed : {2ull, 7ull, 9ull, 23ull}) {
    ChaosOutcome a = RunChaos(seed, 3, 30, 8);
    ChaosOutcome b = RunChaos(seed, 3, 30, 8);
    EXPECT_EQ(a.fault_log, b.fault_log) << "seed " << seed;
    EXPECT_EQ(a.placements, b.placements) << "seed " << seed;
    EXPECT_EQ(a.recovery_ms, b.recovery_ms) << "seed " << seed;
    EXPECT_EQ(a.node_failures, b.node_failures) << "seed " << seed;
    EXPECT_EQ(a.vms_lost, b.vms_lost) << "seed " << seed;
    EXPECT_EQ(a.vms_recovered, b.vms_recovered) << "seed " << seed;
    EXPECT_EQ(a.end_ns, b.end_ns) << "seed " << seed;
    EXPECT_EQ(a.metrics_text, b.metrics_text) << "seed " << seed;
    EXPECT_EQ(a.flight_json, b.flight_json) << "seed " << seed;
  }
}

// --- One sink per counted fact ------------------------------------------------

// Every count an object reports per instance has a registry twin of the same
// name (one metrics::Tally feeds both). Sums each over the cluster's objects.
std::map<std::string, int64_t> PerObjectCounts(Cluster& cl) {
  std::map<std::string, int64_t> sum;
  for (int n = 0; n < cl.num_nodes(); ++n) {
    lightvm::Host& host = cl.host(n);
    const hv::Hypervisor::Stats hv = host.hv().stats();
    sum["hv.hypervisor.hypercalls"] += hv.hypercalls;
    sum["hv.hypervisor.domains_created"] += hv.domains_created;
    sum["hv.hypervisor.domains_destroyed"] += hv.domains_destroyed;
    const xs::Daemon::Stats xs =
        host.store() != nullptr ? host.store()->stats() : xs::Daemon::Stats{};
    sum["xenstore.daemon.ops"] += xs.ops;
    sum["xenstore.daemon.tx_conflicts"] += xs.conflicts;
    sum["xenstore.daemon.log_rotations"] += xs.rotations;
    sum["xenstore.daemon.watch_events"] += xs.watch_events;
    sum["xenstore.daemon.restarts"] += xs.restarts;
    const xnet::Switch::Stats sw = host.network_switch().stats();
    sum["net.switch.forwarded"] += sw.forwarded;
    sum["net.switch.broadcasts"] += sw.broadcasts;
    sum["net.switch.dropped_no_port"] += sw.dropped_no_port;
    sum["net.switch.dropped_overload"] += sw.dropped_overload;
    sum["node.jobs.started"] += host.node().jobs_started();
    sum["node.jobs.completed"] += host.node().jobs_completed();
    sum["node.jobs.failed"] += host.node().jobs_failed();
    sum["toolstack.chaosd.shells_built"] +=
        host.chaos_daemon() != nullptr ? host.chaos_daemon()->shells_built() : 0;
  }
  sum["cluster.vms_deployed"] = cl.vms_deployed();
  sum["cluster.admission_rejects"] = cl.admission_rejects();
  sum["cluster.deploy_retries"] = cl.deploy_retries();
  sum["cluster.deploy_replacements"] = cl.deploy_replacements();
  sum["cluster.migrations"] = cl.migrations();
  sum["cluster.invariant_failures"] = cl.invariant_failures();
  sum["cluster.node_failures"] = cl.node_failures();
  sum["cluster.vms_lost"] = cl.vms_lost();
  sum["cluster.vms_recovered"] = cl.vms_recovered();
  sum["cluster.vms_unrecovered"] = cl.vms_unrecovered();
  return sum;
}

// Compares each per-object sum with its registry counter (which started the
// run at zero, as every object did) and collects the facts the run moved.
void ExpectOneSinkPerFact(Cluster& cl, const char* run, std::set<std::string>* moved) {
  std::map<std::string, int64_t> sums = PerObjectCounts(cl);
  ASSERT_EQ(sums.size(), 26u);
  for (const auto& [name, sum] : sums) {
    const metrics::Counter* counter = metrics::Registry::Get().FindCounter(name);
    EXPECT_EQ(counter == nullptr ? 0.0 : counter->value(), static_cast<double>(sum))
        << run << ": " << name;
    if (sum > 0) {
      moved->insert(name);
    }
  }
}

// Deploys `vms` daytime guests with four concurrent callers; returns how
// many succeeded.
int64_t DeployFleet(sim::Engine& engine, Cluster& cl, int vms) {
  int next = 0;
  int done = 0;
  int64_t ok = 0;
  auto worker = [&]() -> sim::Co<void> {
    while (next < vms) {
      int i = next++;
      auto h = co_await cl.Deploy(DaytimeConfig(lv::StrFormat("vm%d", i)), true);
      ok += h.ok();
      ++done;
    }
  };
  for (int w = 0; w < 4; ++w) {
    engine.Spawn(worker());
  }
  LV_CHECK(sim::RunUntilCondition(engine, [&] { return done >= vms; },
                                  Duration::Seconds(600)));
  return ok;
}

// Moves the store and switch counts a deploy run leaves at zero: one
// transaction conflict and one packet of each switch outcome, all on an idle
// node.
sim::Co<void> MoveStoreAndSwitchCounts(lightvm::Host& host) {
  const sim::ExecCtx ctx = host.Dom0Ctx();
  xs::Daemon* store = host.store();
  xs::XsClient dom0(&host.engine(), store, hv::kDom0);
  lv::Result<xs::TxnId> first = co_await dom0.TxBegin(ctx);
  lv::Result<xs::TxnId> second = co_await dom0.TxBegin(ctx);
  LV_CHECK(first.ok() && second.ok());
  LV_CHECK((co_await dom0.Write(ctx, "/probe", "a", *first)).ok());
  LV_CHECK((co_await dom0.Write(ctx, "/probe", "b", *second)).ok());
  LV_CHECK((co_await dom0.TxCommit(ctx, *first)).ok());
  LV_CHECK((co_await dom0.TxCommit(ctx, *second)).code() == lv::ErrorCode::kConflict);

  xnet::Switch& sw = host.network_switch();
  LV_CHECK(sw.AddPort("probe", [](const xnet::Packet&) {}).ok());
  xnet::Packet packet;
  const char* const destinations[] = {"probe", "", "nowhere"};
  for (const char* dst : destinations) {  // forwarded, broadcast, no port
    packet.dst = dst;
    co_await sw.Forward(ctx, packet);
  }
  const xnet::Switch::Costs costs = sw.costs();
  xnet::Switch::Costs starved = costs;
  starved.capacity_pps = 0.0;
  sw.set_costs(starved);
  packet.dst = "probe";
  co_await sw.Forward(ctx, packet);  // over capacity
  sw.set_costs(costs);
  LV_CHECK(sw.RemovePort("probe").ok());
}

// Several hosts share the process, so each object's count must add up to the
// registry counter exactly. Two 3-node runs move the facts between them. On
// chaos+XenStore (split): deploys under injected create faults, an
// admission reject, a short log-rotation period, an idle xenstored restart
// and the store and switch probes above; no retires or migrations, whose
// destroys trip known defects in this mode (ROADMAP item 1). On LightVM: a
// fleet through a node crash and reboot, then a migration.
TEST_F(ClusterTest, PerObjectCountsSumToTheirRegistryCounters) {
  std::set<std::string> moved;
  {
    ResetObservability();
    sim::Engine engine(5);
    ClusterSpec spec = SmallSpec(3);
    spec.mechanisms = lightvm::Mechanisms::ChaosXsSplit();
    spec.create_retries = 2;
    Cluster cl(&engine, spec, std::make_unique<LeastLoaded>());
    Prefill(cl);
    cl.StartHealthMonitor();
    cl.host(0).store()->mutable_costs()->log_rotate_lines = 64;
    cl.host(1).fault_hooks().fail_next_creates += 5;
    EXPECT_GT(DeployFleet(engine, cl, 15), 0);

    toolstack::VmConfig huge = DaytimeConfig("huge");
    huge.image.memory = Bytes::GiB(1024);
    EXPECT_FALSE(sim::RunToCompletion(engine, cl.Deploy(huge, true)).ok());

    cl.host(2).store()->InjectRestart(Duration::Millis(5));
    ASSERT_TRUE(sim::RunUntilCondition(
        engine, [&] { return cl.host(2).store()->stats().restarts == 1; },
        Duration::Seconds(60)));
    sim::RunToCompletion(engine, MoveStoreAndSwitchCounts(cl.host(0)));
    ExpectOneSinkPerFact(cl, "chaos-xs-split", &moved);
  }
  {
    ResetObservability();
    sim::Engine engine(9);
    Cluster cl(&engine, SmallSpec(3), std::make_unique<LeastLoaded>());
    Prefill(cl);
    cl.StartHealthMonitor();
    engine.Schedule(Duration::Millis(20), [&] { cl.CrashNode(1); });
    engine.Schedule(Duration::Millis(120), [&] { cl.RequestReboot(1); });
    EXPECT_GT(DeployFleet(engine, cl, 24), 0);
    ASSERT_TRUE(sim::RunUntilCondition(
        engine,
        [&] {
          return cl.node_alive(1) && cl.node_failures() == 1 &&
                 cl.vms_lost() == cl.vms_recovered() + cl.vms_unrecovered();
        },
        Duration::Seconds(600)));
    auto h = sim::RunToCompletion(engine, cl.Deploy(DaytimeConfig("mover"), true));
    ASSERT_TRUE(h.ok()) << h.error().message;
    EXPECT_TRUE(sim::RunToCompletion(engine, cl.Migrate(*h, (h->node + 1) % 3)).ok());
    ExpectOneSinkPerFact(cl, "lightvm", &moved);
  }
  // Every fact moved except the two failure counts a healthy run keeps at 0.
  EXPECT_EQ(moved.size(), 24u);
  EXPECT_FALSE(moved.contains("cluster.invariant_failures"));
  EXPECT_FALSE(moved.contains("cluster.vms_unrecovered"));
}

// A node dying between placement and create completion: Deploy releases the
// reservation and re-places once on the survivors.
TEST_F(ClusterTest, DeployReplacesNodeThatDiesMidCreate) {
  Cluster cl(&engine_, SmallSpec(2), std::make_unique<LeastLoaded>());
  Prefill(cl);
  cl.StartHealthMonitor();

  // Crash node 0 (the tie-break pick for the first deploy) while its create
  // job is in flight.
  engine_.Schedule(Duration::Micros(200), [&] { cl.CrashNode(0); });
  auto h = Run(cl.Deploy(DaytimeConfig("replaced"), true));
  ASSERT_TRUE(h.ok()) << h.error().message;
  EXPECT_EQ(h->node, 1);
  EXPECT_EQ(cl.deploy_replacements(), 1);
  EXPECT_EQ(cl.host(1).num_vms(), 1);

  Cluster::Drift drift = cl.AdmissionDrift();
  EXPECT_EQ(drift.memory.count(), 0);
  EXPECT_EQ(drift.vcpus, 0);
  // Nothing was ever placed on node 0, so the write-off evacuates nothing.
  ASSERT_TRUE(sim::RunUntilCondition(engine_, [&] { return !cl.node_alive(0); },
                                     Duration::Seconds(60)));
  EXPECT_EQ(cl.vms_lost(), 0);
}

// The double failure: the re-placed attempt ALSO loses its node. Deploy must
// fail with a typed error, leaking no reservation on either node.
TEST_F(ClusterTest, DeployFailsTypedWhenReplacementNodeAlsoDies) {
  Cluster cl(&engine_, SmallSpec(2), std::make_unique<LeastLoaded>());
  Prefill(cl);
  cl.StartHealthMonitor();

  engine_.Schedule(Duration::Micros(200), [&] { cl.CrashNode(0); });
  // Crash node 1 as soon as the re-placed create reaches it.
  auto second_killer = [&]() -> sim::Co<void> {
    while (cl.host(1).node().jobs_active() == 0) {
      co_await engine_.Sleep(Duration::Micros(50));
    }
    cl.CrashNode(1);
  };
  engine_.Spawn(second_killer());

  auto h = Run(cl.Deploy(DaytimeConfig("doomed"), true));
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.error().code, lv::ErrorCode::kUnavailable);
  EXPECT_EQ(h.error().message, "target node died during deploy");
  EXPECT_EQ(cl.deploy_replacements(), 1);
  EXPECT_EQ(cl.deploy_failures(), 1);
  Cluster::Drift drift = cl.AdmissionDrift();
  EXPECT_EQ(drift.memory.count(), 0);
  EXPECT_EQ(drift.vcpus, 0);
}

// A target that crashed but is not yet written off must be refused before
// anything moves: admitting it would tear the source copy down and leave
// the arriving guest on a dead node, off the books.
TEST_F(ClusterTest, MigrateRefusesCrashedTargetBeforeWriteOff) {
  Cluster cl(&engine_, SmallSpec(2), std::make_unique<FirstFit>());
  Prefill(cl);
  cl.StartHealthMonitor();
  auto h = Run(cl.Deploy(DaytimeConfig("stay"), true));
  ASSERT_TRUE(h.ok()) << h.error().message;
  ASSERT_EQ(h->node, 0);

  cl.CrashNode(1);
  ASSERT_TRUE(cl.node_alive(1));  // the monitor has not swept yet
  auto moved = Run(cl.Migrate(*h, 1));
  ASSERT_FALSE(moved.ok());
  EXPECT_EQ(moved.error().code, lv::ErrorCode::kUnavailable);
  EXPECT_EQ(moved.error().message, "target node is down");
  EXPECT_EQ(cl.host(0).num_vms(), 1);
  EXPECT_EQ(cl.view(1).memory_committed, Bytes());

  ASSERT_TRUE(sim::RunUntilCondition(
      engine_, [&] { return !cl.node_alive(1) && cl.host(1).crash_settled(); },
      Duration::Seconds(60)));
  EXPECT_EQ(cl.host(1).num_vms(), 0);
  EXPECT_EQ(cl.total_vms(), 1);
  EXPECT_EQ(cl.vms_lost(), 0);
  // The placement is still on the books, so the VM retires normally.
  EXPECT_TRUE(Run(cl.Retire(*h)).ok());
  EXPECT_EQ(cl.total_vms(), 0);
}

// A crashed host stops admitting the moment it dies: placement skips it
// before the health monitor's sweep writes it off.
TEST_F(ClusterTest, CrashedNodeStopsAdmittingBeforeWriteOff) {
  Cluster cl(&engine_, SmallSpec(2), std::make_unique<FirstFit>());
  Prefill(cl);
  cl.StartHealthMonitor();
  cl.CrashNode(0);
  ASSERT_TRUE(cl.node_alive(0));  // the monitor has not swept yet
  EXPECT_FALSE(cl.view(0).alive);
  EXPECT_TRUE(cl.view(1).alive);

  auto h = Run(cl.Deploy(DaytimeConfig("survivor"), true));
  ASSERT_TRUE(h.ok()) << h.error().message;
  EXPECT_EQ(h->node, 1);  // first-fit passes over the dead lowest index
  EXPECT_EQ(cl.deploy_replacements(), 0);
  EXPECT_EQ(cl.view(0).memory_committed, Bytes());
  EXPECT_EQ(cl.view(1).memory_committed, guests::DaytimeUnikernel().memory);
}

// A written-off target stays refused through its reboot until the monitor
// readmits it; after that, Migrate lands on it normally.
TEST_F(ClusterTest, MigrateWaitsForRebootedTargetToBeReadmitted) {
  Cluster cl(&engine_, SmallSpec(2), std::make_unique<FirstFit>());
  Prefill(cl);
  cl.StartHealthMonitor();
  auto h = Run(cl.Deploy(DaytimeConfig("mover"), true));
  ASSERT_TRUE(h.ok()) << h.error().message;
  ASSERT_EQ(h->node, 0);

  cl.CrashNode(1);
  ASSERT_TRUE(sim::RunUntilCondition(
      engine_, [&] { return !cl.node_alive(1) && cl.host(1).crash_settled(); },
      Duration::Seconds(60)));
  auto refused = Run(cl.Migrate(*h, 1));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().message, "target node is down");

  // The reboot is immediate (the crash settled and was written off), but the
  // node only rejoins placement at the monitor's next sweep.
  cl.RequestReboot(1);
  ASSERT_FALSE(cl.host(1).crashed());
  ASSERT_FALSE(cl.node_alive(1));
  auto early = Run(cl.Migrate(*h, 1));
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.error().message, "target node is down");
  EXPECT_EQ(cl.admission_rejects(), 2);
  EXPECT_EQ(cl.view(1).memory_committed, Bytes());

  ASSERT_TRUE(sim::RunUntilCondition(engine_, [&] { return cl.node_alive(1); },
                                     Duration::Seconds(60)));
  auto moved = Run(cl.Migrate(*h, 1));
  ASSERT_TRUE(moved.ok()) << moved.error().message;
  EXPECT_EQ(moved->node, 1);
  EXPECT_EQ(cl.host(0).num_vms(), 0);
  EXPECT_EQ(cl.host(1).num_vms(), 1);
  EXPECT_EQ(cl.migrations(), 1);
  EXPECT_TRUE(Run(cl.Retire(*moved)).ok());
  EXPECT_EQ(cl.total_vms(), 0);
}

}  // namespace
}  // namespace cluster
