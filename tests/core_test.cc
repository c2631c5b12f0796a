// End-to-end integration tests: full hosts with every mechanism combination
// from Figure 9 — create/boot, destroy, save/restore, migrate — plus the
// invariants the paper's design promises (noxs never touches a store; the
// split toolstack's pool refills; LightVM beats xl by orders of magnitude).
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "src/base/strings.h"
#include "src/core/host.h"
#include "src/metrics/metrics.h"
#include "src/sim/run.h"

namespace lightvm {
namespace {

using lv::Bytes;
using lv::Duration;
using lv::TimePoint;

toolstack::VmConfig DaytimeConfig(const std::string& name) {
  toolstack::VmConfig config;
  config.name = name;
  config.image = guests::DaytimeUnikernel();
  return config;
}

// Samples so far in the four save/restore latency histograms, keyed
// "<family>.<verb>"; a histogram not yet registered counts zero.
std::map<std::string, int64_t> SaveRestoreSamples() {
  std::map<std::string, int64_t> samples;
  for (const char* family : {"xl", "chaos"}) {
    for (const char* verb : {"save", "restore"}) {
      const metrics::Histogram* h = metrics::Registry::Get().FindHistogram(
          lv::StrFormat("toolstack.%s.%s_ms", family, verb));
      samples[lv::StrFormat("%s.%s", family, verb)] = h == nullptr ? 0 : h->count();
    }
  }
  return samples;
}

class CoreTest : public ::testing::Test {
 public:
  template <typename T>
  T Run(sim::Co<T> co) {
    return sim::RunToCompletion(engine_, std::move(co));
  }

  std::unique_ptr<Host> MakeHost(Mechanisms mechanisms,
                                 HostSpec spec = HostSpec::Xeon4Core()) {
    auto host = std::make_unique<Host>(&engine_, spec, mechanisms);
    if (mechanisms.split) {
      host->AddShellFlavor(guests::DaytimeUnikernel().memory, true, 4);
      host->PrefillShellPool();
    }
    return host;
  }

  // Creates a VM and waits until booted; returns (domid, create+boot time).
  std::pair<hv::DomainId, Duration> CreateBootTimed(Host& host,
                                                    toolstack::VmConfig config) {
    TimePoint t0 = engine_.now();
    auto domid = Run(host.CreateAndBoot(std::move(config)));
    LV_CHECK_MSG(domid.ok(), domid.ok() ? "" : domid.error().message.c_str());
    return {*domid, engine_.now() - t0};
  }

  sim::Engine engine_;
};

TEST_F(CoreTest, MechanismLabels) {
  EXPECT_EQ(Mechanisms::Xl().label(), "xl");
  EXPECT_EQ(Mechanisms::ChaosXs().label(), "chaos [XS]");
  EXPECT_EQ(Mechanisms::ChaosXsSplit().label(), "chaos [XS+split]");
  EXPECT_EQ(Mechanisms::ChaosNoxs().label(), "chaos [NoXS]");
  EXPECT_EQ(Mechanisms::LightVm().label(), "chaos [NoXS+split] (LightVM)");
}

TEST_F(CoreTest, XlCreatesAndBootsUnikernel) {
  auto host = MakeHost(Mechanisms::Xl());
  auto [domid, elapsed] = CreateBootTimed(*host, DaytimeConfig("vm0"));
  EXPECT_EQ(host->num_vms(), 1);
  EXPECT_TRUE(host->guest(domid)->booted());
  EXPECT_TRUE(host->netback().IsConnected(domid));
  // xl pays config parsing, ~20 store records, bash hotplug: tens of ms.
  EXPECT_GT(elapsed.ms(), 20.0);
  EXPECT_LT(elapsed.ms(), 300.0);
  // The breakdown's phases are all populated.
  const toolstack::CreateBreakdown& bd = host->toolstack().last_breakdown();
  EXPECT_GT(bd.config.ns(), 0);
  EXPECT_GT(bd.hypervisor.ns(), 0);
  EXPECT_GT(bd.xenstore.ns(), 0);
  EXPECT_GT(bd.devices.ns(), 0);
  EXPECT_GT(bd.load.ns(), 0);
  // Devices dominate at low VM counts (bash hotplug), as in Figure 5.
  EXPECT_GT(bd.devices.ns(), bd.xenstore.ns());
}

TEST_F(CoreTest, LightVmCreatesInMilliseconds) {
  auto host = MakeHost(Mechanisms::LightVm());
  auto [domid, elapsed] = CreateBootTimed(*host, DaytimeConfig("vm0"));
  EXPECT_TRUE(host->guest(domid)->booted());
  // Paper: ~4 ms for the daytime unikernel with all optimizations.
  EXPECT_LT(elapsed.ms(), 10.0);
  EXPECT_GT(elapsed.ms(), 1.0);
  // No store exists at all in noxs mode.
  EXPECT_EQ(host->store(), nullptr);
}

TEST_F(CoreTest, LightVmVsXlSpeedup) {
  auto xl = MakeHost(Mechanisms::Xl());
  auto lightvm = MakeHost(Mechanisms::LightVm());
  auto [xl_id, xl_time] = CreateBootTimed(*xl, DaytimeConfig("vm0"));
  auto [lv_id, lv_time] = CreateBootTimed(*lightvm, DaytimeConfig("vm0"));
  // "two orders of magnitude faster than Docker", and >10x faster than xl
  // even at N=0.
  EXPECT_GT(xl_time.ns(), lv_time.ns() * 10);
}

TEST_F(CoreTest, EveryMechanismCreatesSuccessfully) {
  for (Mechanisms m : {Mechanisms::Xl(), Mechanisms::ChaosXs(), Mechanisms::ChaosXsSplit(),
                       Mechanisms::ChaosNoxs(), Mechanisms::LightVm()}) {
    auto host = MakeHost(m);
    auto [domid, elapsed] = CreateBootTimed(*host, DaytimeConfig("vm-" + m.label()));
    EXPECT_TRUE(host->guest(domid)->booted()) << m.label();
    EXPECT_TRUE(Run(host->DestroyVm(domid)).ok()) << m.label();
    EXPECT_EQ(host->num_vms(), 0) << m.label();
  }
}

TEST_F(CoreTest, SplitPoolRefillsAfterTake) {
  auto host = MakeHost(Mechanisms::LightVm());
  ASSERT_EQ(host->chaos_daemon()->pool_size(), 4);
  auto [domid, elapsed] = CreateBootTimed(*host, DaytimeConfig("vm0"));
  (void)domid;
  // The daemon refills in the background.
  bool refilled = sim::RunUntilCondition(
      engine_, [&] { return host->chaos_daemon()->pool_size() >= 4; },
      Duration::Seconds(10));
  EXPECT_TRUE(refilled);
  EXPECT_GE(host->chaos_daemon()->shells_built(), 5);
}

TEST_F(CoreTest, SplitPoolMissFallsBackInline) {
  auto host = std::make_unique<Host>(&engine_, HostSpec::Xeon4Core(),
                                     Mechanisms::LightVm());
  // No flavors configured: every create is a pool miss, but still succeeds.
  auto domid = Run(host->CreateAndBoot(DaytimeConfig("vm0")));
  ASSERT_TRUE(domid.ok());
  EXPECT_TRUE(host->guest(*domid)->booted());
}

TEST_F(CoreTest, UniqueNamesEnforcedUnderXenstore) {
  auto host = MakeHost(Mechanisms::Xl());
  auto first = Run(host->CreateVm(DaytimeConfig("dup")));
  ASSERT_TRUE(first.ok());
  auto second = Run(host->CreateVm(DaytimeConfig("dup")));
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.code(), lv::ErrorCode::kAlreadyExists);
}

TEST_F(CoreTest, MemoryAccountingTracksGuests) {
  auto host = MakeHost(Mechanisms::ChaosNoxs());
  lv::Bytes before = host->MemoryUsed();
  auto [domid, elapsed] = CreateBootTimed(*host, DaytimeConfig("vm0"));
  lv::Bytes with_vm = host->MemoryUsed();
  EXPECT_GT((with_vm - before).mib(), 3.0);  // ~3.6 MB reservation.
  ASSERT_TRUE(Run(host->DestroyVm(domid)).ok());
  EXPECT_EQ(host->MemoryUsed(), before);
}

TEST_F(CoreTest, PageSharingReducesMemoryFootprint) {
  auto baseline = MakeHost(Mechanisms::LightVm());
  auto shared = MakeHost(Mechanisms::LightVmShared());
  for (int i = 0; i < 20; ++i) {
    (void)CreateBootTimed(*baseline, DaytimeConfig(lv::StrFormat("b%d", i)));
    (void)CreateBootTimed(*shared, DaytimeConfig(lv::StrFormat("s%d", i)));
  }
  lv::Bytes base_used = baseline->MemoryUsed() - baseline->spec().dom0_memory;
  lv::Bytes shared_used = shared->MemoryUsed() - shared->spec().dom0_memory;
  // 75% of each VM's pages are deduplicated against the flavor template.
  EXPECT_LT(shared_used.mib(), base_used.mib() * 0.5);
  // Guests still boot and destroy cleanly.
  EXPECT_EQ(shared->num_vms(), 20);
  EXPECT_EQ(shared->mechanisms().label(),
            "chaos [NoXS+split] (LightVM) +page-sharing");
}

TEST_F(CoreTest, SaveAndRestoreRoundTrip) {
  for (Mechanisms m : {Mechanisms::Xl(), Mechanisms::LightVm()}) {
    auto host = MakeHost(m);
    auto [domid, elapsed] = CreateBootTimed(*host, DaytimeConfig("vm0"));
    std::map<std::string, int64_t> before = SaveRestoreSamples();
    TimePoint t0 = engine_.now();
    auto snap = Run(host->SaveVm(domid));
    ASSERT_TRUE(snap.ok()) << m.label();
    Duration save_time = engine_.now() - t0;
    EXPECT_EQ(host->num_vms(), 0) << m.label();
    std::map<std::string, int64_t> saved = SaveRestoreSamples();

    t0 = engine_.now();
    auto restored = Run(host->RestoreVm(*snap));
    ASSERT_TRUE(restored.ok()) << m.label();
    Duration restore_time = engine_.now() - t0;
    std::map<std::string, int64_t> restored_samples = SaveRestoreSamples();

    // Save and Restore are written once for both toolstacks, yet each sample
    // lands in its own toolstack's histogram and in no other. The registry
    // is process-wide, so compare counts.
    const std::string family = m.toolstack == ToolstackKind::kXl ? "xl" : "chaos";
    for (const auto& [key, count] : before) {
      EXPECT_EQ(saved[key] - count, key == family + ".save" ? 1 : 0) << m.label() << ": " << key;
      EXPECT_EQ(restored_samples[key] - saved[key], key == family + ".restore" ? 1 : 0)
          << m.label() << ": " << key;
    }
    EXPECT_EQ(host->num_vms(), 1) << m.label();
    Run(host->WaitBooted(*restored));
    EXPECT_TRUE(host->guest(*restored)->booted()) << m.label();

    if (m.noxs) {
      // LightVM: ~30 ms save / ~20 ms restore in the paper.
      EXPECT_LT(save_time.ms(), 60.0) << m.label();
      EXPECT_LT(restore_time.ms(), 40.0) << m.label();
    } else {
      // xl is several times slower (128 ms / 550 ms in the paper).
      EXPECT_GT(save_time.ms(), 30.0) << m.label();
      EXPECT_GT(restore_time.ms(), 40.0) << m.label();
    }
  }
}

TEST_F(CoreTest, MigrationMovesVmBetweenHosts) {
  auto src = MakeHost(Mechanisms::LightVm());
  auto dst = MakeHost(Mechanisms::LightVm());
  xnet::Link link(&engine_, /*gbps=*/10.0, Duration::MillisF(0.2));

  auto [domid, elapsed] = CreateBootTimed(*src, DaytimeConfig("mig0"));
  TimePoint t0 = engine_.now();
  lv::Status migrated = Run(src->MigrateVm(domid, dst.get(), &link));
  ASSERT_TRUE(migrated.ok());
  Duration migration_time = engine_.now() - t0;

  EXPECT_EQ(src->num_vms(), 0);
  EXPECT_EQ(dst->num_vms(), 1);
  EXPECT_EQ(dst->migration_daemon().migrations_received(), 1);
  // LightVM migrates the daytime unikernel in ~60 ms.
  EXPECT_LT(migration_time.ms(), 150.0);
}

TEST_F(CoreTest, XlMigrationMuchSlowerThanLightVm) {
  auto xl_src = MakeHost(Mechanisms::Xl());
  auto xl_dst = MakeHost(Mechanisms::Xl());
  auto lv_src = MakeHost(Mechanisms::LightVm());
  auto lv_dst = MakeHost(Mechanisms::LightVm());
  xnet::Link link(&engine_, 10.0, Duration::MillisF(0.2));

  auto [xl_id, e1] = CreateBootTimed(*xl_src, DaytimeConfig("m0"));
  TimePoint t0 = engine_.now();
  ASSERT_TRUE(Run(xl_src->MigrateVm(xl_id, xl_dst.get(), &link)).ok());
  Duration xl_time = engine_.now() - t0;

  auto [lv_id, e2] = CreateBootTimed(*lv_src, DaytimeConfig("m0"));
  t0 = engine_.now();
  ASSERT_TRUE(Run(lv_src->MigrateVm(lv_id, lv_dst.get(), &link)).ok());
  Duration lv_time = engine_.now() - t0;

  EXPECT_GT(xl_time.ns(), lv_time.ns() * 3);
}

TEST_F(CoreTest, DensityManySmallVms) {
  auto host = MakeHost(Mechanisms::LightVm());
  for (int i = 0; i < 50; ++i) {
    auto domid = Run(host->CreateAndBoot(DaytimeConfig(lv::StrFormat("d%d", i))));
    ASSERT_TRUE(domid.ok()) << i;
  }
  EXPECT_EQ(host->num_vms(), 50);
  EXPECT_EQ(host->hv().NumDomainsInState(hv::DomainState::kRunning), 50);
  // Pool shells sit pre-created in the building state (one may be mid-build
  // inside the daemon when we look).
  EXPECT_GE(host->hv().NumDomainsInState(hv::DomainState::kBuilding),
            host->chaos_daemon()->pool_size());
}

TEST_F(CoreTest, CreationTimeStaysFlatUnderLightVm) {
  auto host = MakeHost(Mechanisms::LightVm());
  Duration first;
  Duration last;
  for (int i = 0; i < 100; ++i) {
    auto [domid, elapsed] = CreateBootTimed(*host, DaytimeConfig(lv::StrFormat("f%d", i)));
    if (i == 0) {
      first = elapsed;
    }
    last = elapsed;
  }
  // "boot times as low as 4ms going up to just 4.1ms for the 1,000th VM".
  EXPECT_LT(last.ns(), first.ns() * 2);
}

// Concurrent-job lifecycle: creates and destroys submitted through the
// NodeApi job layer, overlapping a synchronous migration, must interleave
// safely on every toolstack variant — and leave no domains, pages, grants or
// channels behind.
TEST_F(CoreTest, ConcurrentLifecycleJobsAcrossMechanisms) {
  for (Mechanisms m : {Mechanisms::Xl(), Mechanisms::ChaosXs(), Mechanisms::ChaosNoxs(),
                       Mechanisms::LightVm()}) {
    auto src = MakeHost(m);
    auto dst = MakeHost(m);
    xnet::Link link(&engine_, 10.0, Duration::MillisF(0.2));
    lv::Bytes baseline = src->MemoryUsed();
    int64_t channels = src->hv().event_channels().open_channels();
    int64_t grants = src->hv().grant_table().active_grants();

    // Phase 1: six creates in flight at once.
    std::vector<CreateJob> creates;
    for (int i = 0; i < 6; ++i) {
      creates.push_back(
          src->node().SubmitCreate(DaytimeConfig(lv::StrFormat("j%d", i)), true));
    }
    ASSERT_TRUE(sim::RunUntilCondition(
        engine_,
        [&] {
          for (CreateJob& job : creates) {
            if (!job.has_value()) {
              return false;
            }
          }
          return true;
        },
        Duration::Seconds(60)))
        << m.label();
    std::vector<hv::DomainId> ids;
    for (CreateJob& job : creates) {
      ASSERT_TRUE(job.value().ok()) << m.label() << ": " << job.value().error().message;
      ids.push_back(*job.value());
    }
    EXPECT_EQ(src->num_vms(), 6) << m.label();
    EXPECT_EQ(src->node().jobs_started(), 6) << m.label();
    EXPECT_EQ(src->node().jobs_completed(), 6) << m.label();
    EXPECT_EQ(src->node().jobs_failed(), 0) << m.label();

    // Phase 2: destroys, a migration and fresh creates all overlapping.
    std::vector<StatusJob> destroys;
    for (int i = 0; i < 3; ++i) {
      destroys.push_back(src->node().SubmitDestroy(ids[static_cast<size_t>(i)]));
    }
    // Migration has no job shape: spawn the synchronous call so it overlaps.
    std::optional<lv::Result<hv::DomainId>> migrated;
    engine_.Spawn([](sim::Co<lv::Result<hv::DomainId>> co,
                     std::optional<lv::Result<hv::DomainId>>& out) -> sim::Co<void> {
      out = co_await std::move(co);
    }(src->node().MigrateVm(ids[3], &dst->node(), &link), migrated));
    std::vector<CreateJob> more;
    for (int i = 6; i < 8; ++i) {
      more.push_back(
          src->node().SubmitCreate(DaytimeConfig(lv::StrFormat("j%d", i)), true));
    }
    ASSERT_TRUE(sim::RunUntilCondition(
        engine_,
        [&] {
          for (StatusJob& job : destroys) {
            if (!job.has_value()) {
              return false;
            }
          }
          for (CreateJob& job : more) {
            if (!job.has_value()) {
              return false;
            }
          }
          return migrated.has_value();
        },
        Duration::Seconds(60)))
        << m.label();
    for (StatusJob& job : destroys) {
      EXPECT_TRUE(job.value().ok()) << m.label();
    }
    EXPECT_TRUE(migrated->ok()) << m.label();
    EXPECT_EQ(dst->num_vms(), 1) << m.label();
    EXPECT_EQ(dst->migration_daemon().migrations_received(), 1) << m.label();
    for (CreateJob& job : more) {
      ASSERT_TRUE(job.value().ok()) << m.label();
      ids.push_back(*job.value());
    }
    // 8 creates and 3 destroys; the migration is not a job.
    EXPECT_EQ(src->node().jobs_started(), 11) << m.label();
    EXPECT_EQ(src->node().jobs_completed(), 11) << m.label();
    EXPECT_EQ(src->node().jobs_failed(), 0) << m.label();

    // Phase 3: tear the rest down; resources must return to baseline.
    EXPECT_EQ(src->num_vms(), 4) << m.label();  // 6 - 3 destroyed - 1 migrated + 2.
    for (hv::DomainId id : {ids[4], ids[5], ids[6], ids[7]}) {
      ASSERT_TRUE(Run(src->DestroyVm(id)).ok()) << m.label();
    }
    EXPECT_EQ(src->num_vms(), 0) << m.label();
    EXPECT_EQ(src->MemoryUsed(), baseline) << m.label();
    EXPECT_EQ(src->hv().event_channels().open_channels(), channels) << m.label();
    EXPECT_EQ(src->hv().grant_table().active_grants(), grants) << m.label();
    EXPECT_EQ(src->hv().NumDomainsInState(hv::DomainState::kDead), 0) << m.label();
  }
}

// Two destroy jobs for the same domain: the in-flight guard lets exactly one
// proceed; the other fails with kUnavailable instead of racing the teardown.
TEST_F(CoreTest, ConcurrentDestroyJobsAreMutuallyExclusive) {
  auto host = MakeHost(Mechanisms::LightVm());
  auto [domid, elapsed] = CreateBootTimed(*host, DaytimeConfig("vm0"));
  StatusJob first = host->node().SubmitDestroy(domid);
  StatusJob second = host->node().SubmitDestroy(domid);
  ASSERT_TRUE(sim::RunUntilCondition(
      engine_, [&] { return first.has_value() && second.has_value(); },
      Duration::Seconds(10)));
  EXPECT_TRUE(first.value().ok());
  EXPECT_EQ(second.value().code(), lv::ErrorCode::kUnavailable);
  EXPECT_EQ(host->num_vms(), 0);
  EXPECT_EQ(host->node().jobs_failed(), 1);
}

// The same concurrent workload on two same-seed engines produces identical
// domain ids and identical virtual timing.
TEST_F(CoreTest, ConcurrentJobsAreDeterministic) {
  auto run_once = [](Mechanisms m) {
    sim::Engine engine(42);
    Host host(&engine, HostSpec::Xeon4Core(), m);
    if (m.split) {
      host.AddShellFlavor(guests::DaytimeUnikernel().memory, true, 4);
      host.PrefillShellPool();
    }
    std::vector<CreateJob> jobs;
    for (int i = 0; i < 8; ++i) {
      jobs.push_back(
          host.node().SubmitCreate(DaytimeConfig(lv::StrFormat("d%d", i)), true));
    }
    bool done = sim::RunUntilCondition(
        engine,
        [&] {
          for (CreateJob& job : jobs) {
            if (!job.has_value()) {
              return false;
            }
          }
          return true;
        },
        Duration::Seconds(60));
    LV_CHECK(done);
    std::vector<hv::DomainId> ids;
    for (CreateJob& job : jobs) {
      ids.push_back(job.value().ok() ? *job.value() : hv::kInvalidDomain);
    }
    return std::make_pair(ids, engine.now());
  };
  for (Mechanisms m : {Mechanisms::Xl(), Mechanisms::LightVm()}) {
    auto [ids_a, now_a] = run_once(m);
    auto [ids_b, now_b] = run_once(m);
    EXPECT_EQ(ids_a, ids_b) << m.label();
    EXPECT_EQ(now_a.ns(), now_b.ns()) << m.label();
  }
}

TEST_F(CoreTest, CreationTimeGrowsUnderXl) {
  auto host = MakeHost(Mechanisms::Xl());
  Duration first;
  Duration last;
  for (int i = 0; i < 60; ++i) {
    auto [domid, elapsed] = CreateBootTimed(*host, DaytimeConfig(lv::StrFormat("g%d", i)));
    if (i == 0) {
      first = elapsed;
    }
    last = elapsed;
  }
  EXPECT_GT(last.ns(), first.ns());  // Monotone growth with N.
}

}  // namespace
}  // namespace lightvm
