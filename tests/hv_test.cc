// Unit tests for the hypervisor substrate: memory pool, event channels,
// grant tables, domain lifecycle and the noxs device page.
#include <gtest/gtest.h>

#include <vector>

#include "src/base/rng.h"
#include "src/hv/hypervisor.h"
#include "src/sim/engine.h"

namespace hv {
namespace {

using lv::Bytes;
using lv::Duration;
using lv::ErrorCode;

class HvTest : public ::testing::Test {
 protected:
  HvTest() : cpu_(&engine_, 4), hv_(&engine_, Bytes::GiB(4)) {}

  sim::ExecCtx Ctx() { return sim::ExecCtx{&cpu_, 0, sim::kHostOwner}; }

  // Runs a coroutine returning T to completion and hands back the value.
  template <typename T>
  T RunCo(sim::Co<T> co) {
    std::optional<T> out;
    engine_.Spawn([](sim::Co<T> c, std::optional<T>& o) -> sim::Co<void> {
      o = co_await std::move(c);
    }(std::move(co), out));
    engine_.Run();
    LV_CHECK(out.has_value());
    return std::move(*out);
  }

  sim::Engine engine_;
  sim::CpuScheduler cpu_;
  Hypervisor hv_;
};

// One random lifecycle hypercall of the per-state count sweep below.
sim::Co<void> RandomLifecycleCall(Hypervisor& hv, sim::ExecCtx ctx, int64_t op, DomainId id,
                                  std::vector<DomainId>* created) {
  switch (op) {
    case 0: {
      auto domid = co_await hv.DomainCreate(ctx);
      if (domid.ok()) {
        created->push_back(*domid);
        // Pages to scrub, so a destroy suspends and other calls interleave.
        (void)co_await hv.PopulatePhysmap(ctx, *domid, Bytes::MiB(4));
      }
      break;
    }
    case 1:
      (void)co_await hv.DomainFinishBuild(ctx, id);
      break;
    case 2:
      (void)co_await hv.DomainPause(ctx, id);
      break;
    case 3:
      (void)co_await hv.DomainUnpause(ctx, id);
      break;
    case 4:
      (void)co_await hv.DomainShutdown(ctx, id, ShutdownReason::kSuspend);
      break;
    case 5:
      (void)co_await hv.DomainShutdown(ctx, id, ShutdownReason::kPoweroff);
      break;
    default:
      (void)co_await hv.DomainDestroy(ctx, id);
      break;
  }
}

// NumDomainsInState is kept as a count per state. After every step of seeded
// random create / finish-build / pause / unpause / shutdown / destroy
// sequences it must equal a count over FindDomain of every id ever created.
// A step runs one to three calls at once, so a shutdown or a second destroy
// can land while a destroy scrubs its domain's pages, and calls on destroyed
// or wrong-state domains fail.
TEST_F(HvTest, PerStateCountsMatchAScanOfEveryDomain) {
  const DomainState kStates[] = {DomainState::kBuilding,  DomainState::kPaused,
                                 DomainState::kRunning,   DomainState::kSuspended,
                                 DomainState::kShutdown,  DomainState::kDead};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Engine engine;
    sim::CpuScheduler cpu(&engine, 2);
    Hypervisor hv(&engine, Bytes::GiB(1));
    lv::Rng rng(seed);
    std::vector<DomainId> created;
    for (int step = 0; step < 150; ++step) {
      const int64_t calls = rng.Uniform(1, 3);
      for (int64_t c = 0; c < calls; ++c) {
        const int64_t op = created.empty() ? 0 : rng.Uniform(0, 6);
        const DomainId id =
            created.empty()
                ? kInvalidDomain
                : created[static_cast<size_t>(
                      rng.Uniform(0, static_cast<int64_t>(created.size()) - 1))];
        engine.Spawn(RandomLifecycleCall(hv, sim::ExecCtx{&cpu, static_cast<int>(c % 2)}, op,
                                         id, &created));
      }
      engine.Run();
      int64_t counted = 0;
      int64_t reserved = 0;
      for (DomainId id : created) {
        const Domain* dom = hv.FindDomain(id);
        reserved += dom != nullptr ? dom->reserved_pages() : 0;
      }
      // No page is released twice, even by destroys that overlap.
      ASSERT_EQ(hv.memory().used_pages(), reserved) << "seed " << seed << " step " << step;
      for (DomainState state : kStates) {
        int64_t scanned = 0;
        for (DomainId id : created) {
          const Domain* dom = hv.FindDomain(id);
          scanned += dom != nullptr && dom->state() == state;
        }
        ASSERT_EQ(hv.NumDomainsInState(state), scanned)
            << "seed " << seed << " step " << step << " state " << DomainStateName(state);
        counted += scanned;
      }
      ASSERT_EQ(counted, hv.NumDomains()) << "seed " << seed << " step " << step;
    }
  }
}

TEST_F(HvTest, MemoryPoolReserveRelease) {
  MemoryPool pool(Bytes::MiB(1));  // 256 pages
  EXPECT_EQ(pool.total_pages(), 256);
  EXPECT_TRUE(pool.Reserve(100).ok());
  EXPECT_EQ(pool.used_pages(), 100);
  EXPECT_EQ(pool.free_pages(), 156);
  EXPECT_TRUE(pool.Reserve(156).ok());
  EXPECT_EQ(pool.Reserve(1).code(), ErrorCode::kOutOfMemory);
  pool.Release(56);
  EXPECT_TRUE(pool.Reserve(56).ok());
}

TEST_F(HvTest, DomainCreateAssignsIncreasingIds) {
  DomainId a = *RunCo(hv_.DomainCreate(Ctx()));
  DomainId b = *RunCo(hv_.DomainCreate(Ctx()));
  EXPECT_LT(a, b);
  EXPECT_EQ(hv_.NumDomains(), 2);
  EXPECT_EQ(hv_.stats().domains_created, 2);
  EXPECT_EQ(hv_.FindDomain(a)->state(), DomainState::kBuilding);
}

TEST_F(HvTest, PopulatePhysmapReservesMemory) {
  DomainId id = *RunCo(hv_.DomainCreate(Ctx()));
  EXPECT_TRUE(RunCo(hv_.PopulatePhysmap(Ctx(), id, Bytes::MiB(8))).ok());
  EXPECT_EQ(hv_.FindDomain(id)->reserved_pages(), 2048);
  EXPECT_EQ(hv_.memory().used_pages(), 2048);
}

TEST_F(HvTest, PopulatePhysmapFailsWhenPoolExhausted) {
  DomainId id = *RunCo(hv_.DomainCreate(Ctx()));
  EXPECT_EQ(RunCo(hv_.PopulatePhysmap(Ctx(), id, Bytes::GiB(5))).code(),
            ErrorCode::kOutOfMemory);
  EXPECT_EQ(hv_.memory().used_pages(), 0);
}

TEST_F(HvTest, LifecycleBuildingToRunning) {
  DomainId id = *RunCo(hv_.DomainCreate(Ctx()));
  EXPECT_TRUE(RunCo(hv_.VcpuInit(Ctx(), id, {1})).ok());
  EXPECT_TRUE(RunCo(hv_.DomainFinishBuild(Ctx(), id)).ok());
  EXPECT_EQ(hv_.FindDomain(id)->state(), DomainState::kPaused);
  EXPECT_TRUE(RunCo(hv_.DomainUnpause(Ctx(), id)).ok());
  EXPECT_EQ(hv_.FindDomain(id)->state(), DomainState::kRunning);
}

TEST_F(HvTest, UnpauseSpawnsStartFnOnce) {
  DomainId id = *RunCo(hv_.DomainCreate(Ctx()));
  int boots = 0;
  hv_.FindDomain(id)->set_start_fn([&boots](Domain&) -> sim::Co<void> {
    ++boots;
    co_return;
  });
  EXPECT_TRUE(RunCo(hv_.DomainFinishBuild(Ctx(), id)).ok());
  EXPECT_TRUE(RunCo(hv_.DomainUnpause(Ctx(), id)).ok());
  EXPECT_EQ(boots, 1);
  EXPECT_TRUE(RunCo(hv_.DomainPause(Ctx(), id)).ok());
  EXPECT_TRUE(RunCo(hv_.DomainUnpause(Ctx(), id)).ok());
  EXPECT_EQ(boots, 1);  // Start function runs only on first unpause.
}

TEST_F(HvTest, UnpauseRequiresPausedState) {
  DomainId id = *RunCo(hv_.DomainCreate(Ctx()));
  EXPECT_EQ(RunCo(hv_.DomainUnpause(Ctx(), id)).code(), ErrorCode::kInvalidArgument);
}

TEST_F(HvTest, ShutdownSuspendKeepsDomainRestorable) {
  DomainId id = *RunCo(hv_.DomainCreate(Ctx()));
  EXPECT_TRUE(RunCo(hv_.DomainFinishBuild(Ctx(), id)).ok());
  EXPECT_TRUE(RunCo(hv_.DomainUnpause(Ctx(), id)).ok());
  EXPECT_TRUE(RunCo(hv_.DomainShutdown(Ctx(), id, ShutdownReason::kSuspend)).ok());
  EXPECT_EQ(hv_.FindDomain(id)->state(), DomainState::kSuspended);
  EXPECT_TRUE(RunCo(hv_.DomainShutdown(Ctx(), id, ShutdownReason::kPoweroff)).ok());
  EXPECT_EQ(hv_.FindDomain(id)->state(), DomainState::kShutdown);
}

TEST_F(HvTest, DestroyReleasesMemory) {
  DomainId id = *RunCo(hv_.DomainCreate(Ctx()));
  EXPECT_TRUE(RunCo(hv_.PopulatePhysmap(Ctx(), id, Bytes::MiB(16))).ok());
  EXPECT_GT(hv_.memory().used_pages(), 0);
  EXPECT_TRUE(RunCo(hv_.DomainDestroy(Ctx(), id)).ok());
  EXPECT_EQ(hv_.memory().used_pages(), 0);
  EXPECT_EQ(hv_.FindDomain(id), nullptr);
  EXPECT_EQ(hv_.stats().domains_destroyed, 1);
}

TEST_F(HvTest, OperationsOnMissingDomainFail) {
  EXPECT_EQ(RunCo(hv_.DomainGetInfo(Ctx(), 42)).code(), ErrorCode::kNotFound);
  EXPECT_EQ(RunCo(hv_.DomainDestroy(Ctx(), 42)).code(), ErrorCode::kNotFound);
  EXPECT_EQ(RunCo(hv_.PopulatePhysmap(Ctx(), 42, Bytes::MiB(1))).code(),
            ErrorCode::kNotFound);
}

TEST_F(HvTest, CountDomainsCountsLiveDomains) {
  EXPECT_EQ(RunCo(hv_.CountDomains(Ctx())), 0);
  std::vector<DomainId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(*RunCo(hv_.DomainCreate(Ctx())));
  }
  EXPECT_EQ(RunCo(hv_.CountDomains(Ctx())), 5);
  ASSERT_TRUE(RunCo(hv_.DomainDestroy(Ctx(), ids[2])).ok());
  EXPECT_EQ(RunCo(hv_.CountDomains(Ctx())), 4);
}

TEST_F(HvTest, CountDomainsCostScalesWithCount) {
  for (int i = 0; i < 100; ++i) {
    (void)*RunCo(hv_.DomainCreate(Ctx()));
  }
  lv::TimePoint before = engine_.now();
  (void)RunCo(hv_.CountDomains(Ctx()));
  Duration cost_100 = engine_.now() - before;
  for (int i = 0; i < 900; ++i) {
    (void)*RunCo(hv_.DomainCreate(Ctx()));
  }
  before = engine_.now();
  (void)RunCo(hv_.CountDomains(Ctx()));
  Duration cost_1000 = engine_.now() - before;
  EXPECT_GT(cost_1000.ns(), cost_100.ns() * 4);
}

TEST_F(HvTest, CopyToDomainCostProportionalToSize) {
  DomainId id = *RunCo(hv_.DomainCreate(Ctx()));
  lv::TimePoint t0 = engine_.now();
  EXPECT_TRUE(RunCo(hv_.CopyToDomain(Ctx(), id, Bytes::MiB(1))).ok());
  Duration small = engine_.now() - t0;
  t0 = engine_.now();
  EXPECT_TRUE(RunCo(hv_.CopyToDomain(Ctx(), id, Bytes::MiB(100))).ok());
  Duration large = engine_.now() - t0;
  // ~100x the pages => ~100x the cost (modulo the fixed hypercall cost).
  EXPECT_GT(large.ns(), small.ns() * 50);
}

// --- noxs device page ------------------------------------------------------

TEST_F(HvTest, DevicePageWriteRequiresDom0) {
  DomainId id = *RunCo(hv_.DomainCreate(Ctx()));
  DeviceInfo info;
  info.type = DeviceType::kNet;
  auto denied = RunCo(hv_.DevicePageWrite(Ctx(), /*caller=*/id, id, info));
  EXPECT_EQ(denied.code(), ErrorCode::kPermissionDenied);
  auto ok = RunCo(hv_.DevicePageWrite(Ctx(), kDom0, id, info));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 0);
}

TEST_F(HvTest, DevicePageRoundTrip) {
  DomainId id = *RunCo(hv_.DomainCreate(Ctx()));
  DeviceInfo net;
  net.type = DeviceType::kNet;
  net.event_channel = 7;
  net.grant_ref = 9;
  DeviceInfo sysctl;
  sysctl.type = DeviceType::kSysctl;
  (void)*RunCo(hv_.DevicePageWrite(Ctx(), kDom0, id, net));
  (void)*RunCo(hv_.DevicePageWrite(Ctx(), kDom0, id, sysctl));
  auto entries = *RunCo(hv_.DevicePageRead(Ctx(), id));
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].type, DeviceType::kNet);
  EXPECT_EQ(entries[0].event_channel, 7);
  EXPECT_EQ(entries[0].grant_ref, 9);
  EXPECT_EQ(entries[1].type, DeviceType::kSysctl);
}

TEST_F(HvTest, DevicePageCapacityEnforced) {
  DomainId id = *RunCo(hv_.DomainCreate(Ctx()));
  DeviceInfo info;
  for (int i = 0; i < kDevicePageCapacity; ++i) {
    EXPECT_TRUE(RunCo(hv_.DevicePageWrite(Ctx(), kDom0, id, info)).ok());
  }
  EXPECT_EQ(RunCo(hv_.DevicePageWrite(Ctx(), kDom0, id, info)).code(),
            ErrorCode::kUnavailable);
}

// --- Event channels ---------------------------------------------------------

TEST_F(HvTest, EventChannelNotifyDeliversToOtherSide) {
  Port port = hv_.event_channels().Alloc(kDom0, 5);
  int dom0_irqs = 0;
  int guest_irqs = 0;
  EXPECT_TRUE(hv_.event_channels().Bind(port, kDom0, [&] { ++dom0_irqs; }).ok());
  EXPECT_TRUE(hv_.event_channels().Bind(port, 5, [&] { ++guest_irqs; }).ok());
  EXPECT_TRUE(RunCo(hv_.event_channels().Notify(Ctx(), port, kDom0)).ok());
  EXPECT_EQ(guest_irqs, 1);
  EXPECT_EQ(dom0_irqs, 0);
  EXPECT_TRUE(RunCo(hv_.event_channels().Notify(Ctx(), port, 5)).ok());
  EXPECT_EQ(dom0_irqs, 1);
  EXPECT_EQ(guest_irqs, 1);
}

TEST_F(HvTest, EventChannelRejectsNonEndpoint) {
  Port port = hv_.event_channels().Alloc(kDom0, 5);
  EXPECT_EQ(RunCo(hv_.event_channels().Notify(Ctx(), port, 6)).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(hv_.event_channels().Bind(port, 6, [] {}).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(HvTest, EventChannelCloseInvalidatesPort) {
  Port port = hv_.event_channels().Alloc(kDom0, 5);
  EXPECT_TRUE(hv_.event_channels().IsOpen(port));
  EXPECT_TRUE(hv_.event_channels().Close(port).ok());
  EXPECT_FALSE(hv_.event_channels().IsOpen(port));
  EXPECT_EQ(RunCo(hv_.event_channels().Notify(Ctx(), port, kDom0)).code(),
            ErrorCode::kNotFound);
}

// --- Grant table -------------------------------------------------------------

TEST_F(HvTest, GrantMapUnmapRevoke) {
  GrantTable& gt = hv_.grant_table();
  GrantRef ref = gt.Grant(/*owner=*/5, /*grantee=*/kDom0);
  EXPECT_TRUE(gt.IsActive(ref));
  EXPECT_EQ(gt.Map(/*mapper=*/3, ref).code(), ErrorCode::kPermissionDenied);
  EXPECT_TRUE(gt.Map(kDom0, ref).ok());
  EXPECT_TRUE(gt.IsMapped(ref));
  EXPECT_EQ(gt.Map(kDom0, ref).code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(gt.Revoke(ref).code(), ErrorCode::kUnavailable);  // Still mapped.
  EXPECT_TRUE(gt.Unmap(kDom0, ref).ok());
  EXPECT_TRUE(gt.Revoke(ref).ok());
  EXPECT_FALSE(gt.IsActive(ref));
}

// --- §9 extension: page sharing ----------------------------------------------

TEST_F(HvTest, SharedPopulateReservesTemplateOnce) {
  DomainId a = *RunCo(hv_.DomainCreate(Ctx()));
  DomainId b = *RunCo(hv_.DomainCreate(Ctx()));
  Bytes mem = Bytes::MiB(8);  // 2048 pages
  ASSERT_TRUE(RunCo(hv_.PopulatePhysmapShared(Ctx(), a, mem, "daytime", 0.75)).ok());
  // First domain: full reservation (512 private + 1536 shared).
  EXPECT_EQ(hv_.memory().used_pages(), 2048);
  EXPECT_EQ(hv_.num_shared_templates(), 1);
  EXPECT_EQ(hv_.shared_template_pages(), 1536);

  ASSERT_TRUE(RunCo(hv_.PopulatePhysmapShared(Ctx(), b, mem, "daytime", 0.75)).ok());
  // Second domain adds only its private pages.
  EXPECT_EQ(hv_.memory().used_pages(), 2048 + 512);
}

TEST_F(HvTest, SharedTemplateFreedWithLastDomain) {
  DomainId a = *RunCo(hv_.DomainCreate(Ctx()));
  DomainId b = *RunCo(hv_.DomainCreate(Ctx()));
  Bytes mem = Bytes::MiB(8);
  ASSERT_TRUE(RunCo(hv_.PopulatePhysmapShared(Ctx(), a, mem, "t", 0.5)).ok());
  ASSERT_TRUE(RunCo(hv_.PopulatePhysmapShared(Ctx(), b, mem, "t", 0.5)).ok());
  ASSERT_TRUE(RunCo(hv_.DomainDestroy(Ctx(), a)).ok());
  // Template survives while b still references it.
  EXPECT_EQ(hv_.num_shared_templates(), 1);
  EXPECT_EQ(hv_.memory().used_pages(), 1024 + 1024);  // b's private + shared
  ASSERT_TRUE(RunCo(hv_.DomainDestroy(Ctx(), b)).ok());
  EXPECT_EQ(hv_.num_shared_templates(), 0);
  EXPECT_EQ(hv_.memory().used_pages(), 0);
}

TEST_F(HvTest, SharedPopulateDistinctTemplatesIndependent) {
  DomainId a = *RunCo(hv_.DomainCreate(Ctx()));
  DomainId b = *RunCo(hv_.DomainCreate(Ctx()));
  Bytes mem = Bytes::MiB(4);
  ASSERT_TRUE(RunCo(hv_.PopulatePhysmapShared(Ctx(), a, mem, "t1", 0.5)).ok());
  ASSERT_TRUE(RunCo(hv_.PopulatePhysmapShared(Ctx(), b, mem, "t2", 0.5)).ok());
  EXPECT_EQ(hv_.num_shared_templates(), 2);
  EXPECT_EQ(hv_.memory().used_pages(), 2048);  // No sharing across templates.
}

TEST_F(HvTest, SharedPopulateValidatesFraction) {
  DomainId a = *RunCo(hv_.DomainCreate(Ctx()));
  EXPECT_EQ(RunCo(hv_.PopulatePhysmapShared(Ctx(), a, Bytes::MiB(1), "t", 1.5)).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(RunCo(hv_.PopulatePhysmapShared(Ctx(), a, Bytes::MiB(1), "t", -0.1)).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(HvTest, SharedPopulateSecondDomainIsCheaper) {
  DomainId a = *RunCo(hv_.DomainCreate(Ctx()));
  DomainId b = *RunCo(hv_.DomainCreate(Ctx()));
  Bytes mem = Bytes::MiB(64);
  lv::TimePoint t0 = engine_.now();
  ASSERT_TRUE(RunCo(hv_.PopulatePhysmapShared(Ctx(), a, mem, "big", 0.9)).ok());
  Duration first = engine_.now() - t0;
  t0 = engine_.now();
  ASSERT_TRUE(RunCo(hv_.PopulatePhysmapShared(Ctx(), b, mem, "big", 0.9)).ok());
  Duration second = engine_.now() - t0;
  EXPECT_GT(first.ns(), second.ns() * 5);  // Only 10% of pages populated.
}

TEST_F(HvTest, HypercallsAreCounted) {
  int64_t before = hv_.stats().hypercalls;
  (void)*RunCo(hv_.DomainCreate(Ctx()));
  (void)RunCo(hv_.DomainGetInfo(Ctx(), 1));
  EXPECT_EQ(hv_.stats().hypercalls, before + 2);
}

}  // namespace
}  // namespace hv
