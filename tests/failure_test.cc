// Failure-injection tests: resource exhaustion mid-create, bad inputs and
// misuse of the lifecycle APIs must roll back cleanly — no leaked domains,
// pages, grants or event channels. The FaultInjector's own contract (sink
// dispatch, plan-ordered log) is tested against plain sinks.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <ostream>

#include "src/base/strings.h"
#include "src/core/host.h"
#include "src/core/verify.h"
#include "src/faults/injector.h"
#include "src/obs/obs.h"
#include "src/sim/run.h"

namespace lightvm {

// gtest appends each case's parameter to its test name, and prints a
// Mechanisms as a dump of its 12 bytes. One of them is padding, which holds
// whatever the copy left there, so the names changed from build to build.
// This prints the same dump with the padding zeroed: every build lists one
// set of names, the ones the suite has always had up to that byte.
void PrintTo(const Mechanisms& m, std::ostream* os) {
  struct Image {
    unsigned char bytes[sizeof(Mechanisms)];
  } image{};
  auto put = [&image](size_t offset, const auto& field) {
    std::memcpy(image.bytes + offset, &field, sizeof(field));
  };
  put(offsetof(Mechanisms, toolstack), m.toolstack);
  put(offsetof(Mechanisms, noxs), m.noxs);
  put(offsetof(Mechanisms, split), m.split);
  put(offsetof(Mechanisms, page_sharing), m.page_sharing);
  put(offsetof(Mechanisms, xs_policy), m.xs_policy);
  *os << ::testing::PrintToString(image);
}

namespace {

using lv::Bytes;
using lv::Duration;

toolstack::VmConfig Daytime(const std::string& name) {
  toolstack::VmConfig config;
  config.name = name;
  config.image = guests::DaytimeUnikernel();
  return config;
}

class FailureTest : public ::testing::TestWithParam<Mechanisms> {
 public:
  template <typename T>
  T Run(sim::Co<T> co) {
    return sim::RunToCompletion(engine_, std::move(co));
  }
  sim::Engine engine_;
};

TEST_P(FailureTest, OutOfMemoryCreateRollsBackCleanly) {
  HostSpec spec = HostSpec::Xeon4Core();
  spec.memory = Bytes::MiB(64);  // Fits ~17 daytime VMs.
  spec.dom0_memory = Bytes::MiB(4);
  Host host(&engine_, spec, GetParam());

  int created = 0;
  lv::Status last_error = lv::Status::Ok();
  // Page sharing fits ~4x more VMs before the wall; 128 covers both cases.
  for (int i = 0; i < 128; ++i) {
    auto domid = Run(host.CreateVm(Daytime(lv::StrFormat("oom%d", i))));
    if (!domid.ok()) {
      last_error = lv::Err(domid.error().code, domid.error().message);
      break;
    }
    ++created;
  }
  EXPECT_GT(created, 5);
  EXPECT_LT(created, 128);
  EXPECT_EQ(last_error.code(), lv::ErrorCode::kOutOfMemory);
  // The failed create left no half-built domain behind: every tracked VM is
  // live, and the domain count matches (no zombies accumulating memory).
  EXPECT_EQ(host.num_vms(), created);
  EXPECT_EQ(host.hv().NumDomainsInState(hv::DomainState::kDead), 0);

  // Destroying one VM makes room for exactly one more.
  guests::Guest* any = nullptr;
  for (hv::DomainId id = 1; id < 100 && any == nullptr; ++id) {
    any = host.guest(id);
    if (any != nullptr) {
      ASSERT_TRUE(Run(host.DestroyVm(id)).ok());
    }
  }
  auto again = Run(host.CreateVm(Daytime("after-oom")));
  EXPECT_TRUE(again.ok());
}

TEST_P(FailureTest, LifecycleMisuseReturnsErrorsNotCrashes) {
  Host host(&engine_, HostSpec::Xeon4Core(), GetParam());
  // Operations on unknown VMs.
  EXPECT_EQ(Run(host.DestroyVm(999)).code(), lv::ErrorCode::kNotFound);
  EXPECT_EQ(Run(host.SaveVm(999)).code(), lv::ErrorCode::kNotFound);

  auto domid = Run(host.CreateAndBoot(Daytime("ok")));
  ASSERT_TRUE(domid.ok());
  // Double destroy.
  ASSERT_TRUE(Run(host.DestroyVm(*domid)).ok());
  EXPECT_EQ(Run(host.DestroyVm(*domid)).code(), lv::ErrorCode::kNotFound);
  // Save after destroy.
  EXPECT_EQ(Run(host.SaveVm(*domid)).code(), lv::ErrorCode::kNotFound);
}

TEST_P(FailureTest, MigrateUnknownVmFails) {
  Host src(&engine_, HostSpec::Xeon4Core(), GetParam());
  Host dst(&engine_, HostSpec::Xeon4Core(), GetParam());
  xnet::Link link(&engine_, 10.0, Duration::MillisF(0.2));
  EXPECT_EQ(Run(src.MigrateVm(12345, &dst, &link)).code(), lv::ErrorCode::kNotFound);
  EXPECT_EQ(dst.num_vms(), 0);
}

TEST_P(FailureTest, ResourcesReturnToBaselineAfterChurn) {
  Host host(&engine_, HostSpec::Xeon4Core(), GetParam());
  lv::Bytes baseline = host.MemoryUsed();
  int64_t channels = host.hv().event_channels().open_channels();
  int64_t grants = host.hv().grant_table().active_grants();
  for (int round = 0; round < 5; ++round) {
    std::vector<hv::DomainId> ids;
    for (int i = 0; i < 8; ++i) {
      auto domid = Run(host.CreateAndBoot(Daytime(lv::StrFormat("c%d-%d", round, i))));
      ASSERT_TRUE(domid.ok());
      ids.push_back(*domid);
    }
    for (hv::DomainId id : ids) {
      ASSERT_TRUE(Run(host.DestroyVm(id)).ok());
    }
  }
  EXPECT_EQ(host.MemoryUsed(), baseline);
  EXPECT_EQ(host.hv().event_channels().open_channels(), channels);
  EXPECT_EQ(host.hv().grant_table().active_grants(), grants);
  EXPECT_EQ(host.num_vms(), 0);
  // The reusable invariant checker must agree with the manual comparison.
  lv::Status verified = VerifyNoLeakedResources(host);
  EXPECT_TRUE(verified.ok()) << verified.error().message;
}

// Property sweep: seeded random fault plans of transient faults (injected
// create failures, hotplug stalls, xenstored restarts) against a churn
// workload. Whatever interleaving the plan produces, every failed create
// must roll back completely — the host returns to its resource baseline.
TEST_P(FailureTest, RandomTransientFaultPlansRollBackCleanly) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Engine engine(seed);
    Host host(&engine, HostSpec::Xeon4Core(), GetParam());

    faults::FaultPlan plan =
        faults::FaultPlan::Random(seed, /*nodes=*/1, /*num_events=*/6,
                                  Duration::Millis(50));
    // A single host binds no crash / reboot / partition sinks: it has no
    // cluster to heal it, so this sweep drives only the transient kinds.
    faults::FaultInjector injector(&engine, std::move(plan), host.fault_targets());
    injector.Arm();

    int created = 0;
    int failed = 0;
    std::vector<hv::DomainId> live;
    for (int op = 0; op < 24; ++op) {
      auto domid = sim::RunToCompletion(
          engine, host.CreateAndBoot(Daytime(lv::StrFormat("s%llu-%d",
                                                           (unsigned long long)seed, op))));
      if (domid.ok()) {
        ++created;
        live.push_back(*domid);
      } else {
        ++failed;
        EXPECT_EQ(domid.error().code, lv::ErrorCode::kUnavailable)
            << domid.error().message;
      }
      if (live.size() >= 6) {
        ASSERT_TRUE(sim::RunToCompletion(engine, host.DestroyVm(live.front())).ok());
        live.erase(live.begin());
      }
    }
    for (hv::DomainId id : live) {
      ASSERT_TRUE(sim::RunToCompletion(engine, host.DestroyVm(id)).ok());
    }
    EXPECT_GT(created, 0) << "seed " << seed;
    lv::Status verified = VerifyNoLeakedResources(host);
    EXPECT_TRUE(verified.ok())
        << "seed " << seed << ": " << verified.error().message
        << " (plan:\n" << injector.plan().ToString() << ")";
  }
}

// A node crash destroys every VM through the settle pass; after Reboot the
// host is back at its resource baseline and can create again.
TEST_P(FailureTest, CrashSettleRebootRestoresBaseline) {
  Host host(&engine_, HostSpec::Xeon4Core(), GetParam());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(Run(host.CreateAndBoot(Daytime(lv::StrFormat("pre%d", i)))).ok());
  }
  EXPECT_EQ(host.num_vms(), 4);

  host.Crash();
  ASSERT_TRUE(sim::RunUntilCondition(engine_, [&] { return host.crash_settled(); },
                                     Duration::Seconds(60)));
  EXPECT_EQ(host.num_vms(), 0);
  // New work is refused while the node is down.
  EXPECT_EQ(Run(host.CreateVm(Daytime("while-down"))).error().code,
            lv::ErrorCode::kUnavailable);
  lv::Status verified = VerifyNoLeakedResources(host);
  EXPECT_TRUE(verified.ok()) << verified.error().message;

  host.Reboot();
  EXPECT_FALSE(host.crashed());
  auto domid = Run(host.CreateAndBoot(Daytime("post-reboot")));
  EXPECT_TRUE(domid.ok());
}

// --- FaultInjector ------------------------------------------------------------

faults::FaultEvent MakeFault(faults::FaultKind kind, Duration at, int node) {
  faults::FaultEvent ev;
  ev.kind = kind;
  ev.at = at;
  ev.node = node;
  return ev;
}

// Sinks fire in time order, but the log keeps one slot per plan entry, so it
// reads in plan order whatever order the events fire in.
TEST(FaultInjectorTest, LogReadsInPlanOrderWhateverTheFiringOrder) {
  sim::Engine engine;
  faults::FaultPlan plan;
  plan.events.push_back(MakeFault(faults::FaultKind::kNodeCrash, Duration::Millis(30), 1));
  plan.events.push_back(MakeFault(faults::FaultKind::kCreateFault, Duration::Millis(10), 0));
  plan.events.back().count = 2;
  plan.events.push_back(MakeFault(faults::FaultKind::kXsRestart, Duration::Millis(20), 2));
  plan.events.back().duration = Duration::Millis(5);

  std::vector<std::string> fired;
  faults::FaultTargets targets;
  targets.crash_node = [&](int node) { fired.push_back(lv::StrFormat("crash %d", node)); };
  targets.fail_creates = [&](int node, int count) {
    fired.push_back(lv::StrFormat("creates %d x%d", node, count));
  };
  targets.restart_xenstore = [&](int node, Duration downtime) {
    fired.push_back(lv::StrFormat("restart %d %.0fms", node, downtime.ms()));
  };
  faults::FaultInjector injector(&engine, plan, std::move(targets));
  injector.Arm();
  engine.Run();

  EXPECT_EQ(fired, (std::vector<std::string>{"creates 0 x2", "restart 2 5ms", "crash 1"}));
  EXPECT_EQ(injector.injected(), 3);
  EXPECT_EQ(injector.log(), (std::vector<std::string>{
                                "t=30000000 kind=node-crash node=1",
                                "t=10000000 kind=create-fault node=0 count=2",
                                "t=20000000 kind=xenstore-restart node=2 dur=5000000",
                            }));
}

// An event with no bound sink is still logged (marked "unhandled"), stamped
// with arm time + offset, recorded in the flight ring and passed to
// after_inject.
TEST(FaultInjectorTest, UnboundSinksAreLoggedAsUnhandled) {
  obs::FlightRecorder::Get().Reset();
  sim::Engine engine;
  engine.RunUntil(lv::TimePoint() + Duration::Millis(5));
  faults::FaultPlan plan;
  plan.events.push_back(
      MakeFault(faults::FaultKind::kLinkPartition, Duration::Millis(2), 0));
  plan.events.back().peer = 1;
  plan.events.back().duration = Duration::Millis(10);
  plan.events.push_back(MakeFault(faults::FaultKind::kNodeCrash, Duration::Millis(4), 1));

  std::vector<int> crashed;
  std::vector<faults::FaultKind> seen;
  faults::FaultTargets targets;
  targets.crash_node = [&](int node) { crashed.push_back(node); };
  targets.after_inject = [&](const faults::FaultEvent& ev) { seen.push_back(ev.kind); };
  faults::FaultInjector injector(&engine, plan, std::move(targets));
  injector.Arm();
  engine.Run();

  EXPECT_EQ(crashed, (std::vector<int>{1}));
  EXPECT_EQ(seen, (std::vector<faults::FaultKind>{faults::FaultKind::kLinkPartition,
                                                  faults::FaultKind::kNodeCrash}));
  EXPECT_EQ(injector.log(), (std::vector<std::string>{
                                "t=7000000 kind=link-partition node=0 peer=1 "
                                "dur=10000000 unhandled",
                                "t=9000000 kind=node-crash node=1",
                            }));
  std::vector<obs::FlightEvent> ring = obs::FlightRecorder::Get().NodeEvents(0);
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_STREQ(ring[0].layer, "faults");
  EXPECT_STREQ(ring[0].verb, "partition");
  EXPECT_FALSE(ring[0].ok);
  EXPECT_EQ(ring[0].ts.ns(), Duration::Millis(7).ns());
}

// A run that ends before the plan finishes leaves the unfired slots empty.
TEST(FaultInjectorTest, UnfiredEventsLeaveEmptyLogSlots) {
  sim::Engine engine;
  faults::FaultPlan plan;
  plan.events.push_back(MakeFault(faults::FaultKind::kNodeCrash, Duration::Millis(50), 1));
  plan.events.push_back(MakeFault(faults::FaultKind::kCreateFault, Duration::Millis(1), 0));
  int creates_failed = 0;
  faults::FaultTargets targets;
  targets.fail_creates = [&](int, int count) { creates_failed += count; };
  faults::FaultInjector injector(&engine, plan, std::move(targets));
  injector.Arm();
  engine.RunUntil(lv::TimePoint() + Duration::Millis(10));

  EXPECT_EQ(injector.injected(), 1);
  EXPECT_EQ(creates_failed, 1);
  ASSERT_EQ(injector.log().size(), 2u);
  EXPECT_EQ(injector.log()[0], "");
  EXPECT_EQ(injector.log()[1], "t=1000000 kind=create-fault node=0 count=1");
  EXPECT_EQ(injector.plan().size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, FailureTest,
                         ::testing::Values(Mechanisms::Xl(), Mechanisms::ChaosXs(),
                                           Mechanisms::ChaosNoxs(), Mechanisms::LightVm(),
                                           Mechanisms::LightVmShared()),
                         [](const ::testing::TestParamInfo<Mechanisms>& info) {
                           std::string name = info.param.label();
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace lightvm
