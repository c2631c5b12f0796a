// Integration-style tests for the split-driver device layer: the XenStore
// connection path (Fig. 7a), the noxs path (Fig. 7b), hotplug runners and
// the sysctl power device.
#include <gtest/gtest.h>

#include <optional>

#include "src/devices/backend.h"
#include "src/devices/sysctl.h"
#include "src/net/switch.h"
#include "src/sim/engine.h"
#include "src/sim/run.h"
#include "src/xenstore/daemon.h"

namespace xdev {
namespace {

using lv::Duration;
using lv::ErrorCode;
using lv::TimePoint;

class DevicesTest : public ::testing::Test {
 public:
  DevicesTest()
      : cpu_(&engine_, 4),
        hv_(&engine_, lv::Bytes::GiB(16)),
        switch_(&engine_),
        store_(&engine_),
        bash_(&engine_, &costs_),
        xendevd_(&costs_) {
    store_.Start(Dom0Ctx());
    toolstack_client_ = std::make_unique<xs::XsClient>(&engine_, &store_, hv::kDom0);
  }

  void TearDown() override {
    for (auto& be : backends_) {
      be->StopXsWatcher();
    }
    toolstack_client_.reset();
    store_.Stop();
    engine_.Run();
  }

  BackendDriver* MakeBackend(hv::DeviceType type) {
    backends_.push_back(std::make_unique<BackendDriver>(
        &engine_, &hv_, type, &pages_, type == hv::DeviceType::kNet ? &switch_ : nullptr,
        &costs_));
    return backends_.back().get();
  }

  sim::ExecCtx Dom0Ctx() { return sim::ExecCtx{&cpu_, 0, sim::kHostOwner}; }
  sim::ExecCtx GuestCtx(hv::DomainId id) {
    return sim::ExecCtx{&cpu_, 1 + static_cast<int>(id % 3), id};
  }

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
  hv::Hypervisor hv_;
  xnet::Switch switch_;
  xs::Daemon store_;
  ControlPages pages_;
  Costs costs_;
  BashHotplug bash_;
  Xendevd xendevd_;
  std::unique_ptr<xs::XsClient> toolstack_client_;
  std::vector<std::unique_ptr<BackendDriver>> backends_;
};

TEST_F(DevicesTest, XenstorePathFullHandshake) {
  BackendDriver* netback = MakeBackend(hv::DeviceType::kNet);
  netback->StartXsWatcher(&store_, Dom0Ctx());

  hv::DomainId domid = 7;
  // Toolstack half (xl: hotplug script runs inline).
  lv::Status created =
      RunCo(netback->XsToolstackCreate(Dom0Ctx(), toolstack_client_.get(), domid, &bash_));
  ASSERT_TRUE(created.ok());
  EXPECT_TRUE(netback->HasDevice(domid));
  EXPECT_FALSE(netback->IsConnected(domid));
  EXPECT_TRUE(switch_.HasPort("vif7.0"));  // Hotplug ran inline.

  // Guest half.
  xs::XsClient guest_client(&engine_, &store_, domid);
  lv::Status connected =
      RunCo(netback->XsFrontendConnect(GuestCtx(domid), &guest_client, domid));
  ASSERT_TRUE(connected.ok());
  engine_.Run();  // Let the backend watch fire and complete the handshake.
  EXPECT_TRUE(netback->IsConnected(domid));

  // The store now holds the full device tree.
  EXPECT_TRUE(store_.store().Exists("/local/domain/0/backend/vif/7/0/event-channel"));
  EXPECT_TRUE(store_.store().Exists("/local/domain/7/device/vif/0/backend"));
}

TEST_F(DevicesTest, XenstorePathDestroyRemovesEverything) {
  BackendDriver* netback = MakeBackend(hv::DeviceType::kNet);
  netback->StartXsWatcher(&store_, Dom0Ctx());
  hv::DomainId domid = 9;
  ASSERT_TRUE(
      RunCo(netback->XsToolstackCreate(Dom0Ctx(), toolstack_client_.get(), domid, &bash_))
          .ok());
  xs::XsClient guest_client(&engine_, &store_, domid);
  ASSERT_TRUE(RunCo(netback->XsFrontendConnect(GuestCtx(domid), &guest_client, domid)).ok());
  engine_.Run();
  int64_t channels_before = hv_.event_channels().open_channels();

  ASSERT_TRUE(
      RunCo(netback->XsToolstackDestroy(Dom0Ctx(), toolstack_client_.get(), domid, &bash_))
          .ok());
  EXPECT_FALSE(netback->HasDevice(domid));
  EXPECT_FALSE(switch_.HasPort("vif9.0"));
  EXPECT_FALSE(store_.store().Exists("/local/domain/0/backend/vif/9/0"));
  EXPECT_FALSE(store_.store().Exists("/local/domain/9/device/vif/0"));
  EXPECT_LT(hv_.event_channels().open_channels(), channels_before);
}

// Keeps `core` busy for `work`, sharing it with whatever else runs there.
sim::Co<void> Hog(sim::CpuScheduler* cpu, int core, Duration work) {
  co_await cpu->Run(core, work);
}

sim::Co<void> ConnectFrontend(BackendDriver* be, sim::ExecCtx ctx, xs::XsClient* client,
                              hv::DomainId domid, bool* ok) {
  *ok = (co_await be->XsFrontendConnect(ctx, client, domid)).ok();
}

sim::Co<void> DestroyDevice(BackendDriver* be, sim::ExecCtx ctx, xs::XsClient* client,
                            hv::DomainId domid, HotplugRunner* hotplug, bool* ok) {
  *ok = (co_await be->XsToolstackDestroy(ctx, client, domid, hotplug)).ok();
}

// The back-end's watcher sits on a core so busy that it handles the guest's
// Connected event only after the toolstack has written Closing. Writing
// Connected then would overwrite Closing, and the destroy would wait for a
// close that never runs.
TEST_F(DevicesTest, XenstoreCloseSurvivesAFrontendEventHandledLate) {
  constexpr int kBackendCore = 3;
  BackendDriver* netback = MakeBackend(hv::DeviceType::kNet);
  netback->StartXsWatcher(&store_, sim::ExecCtx{&cpu_, kBackendCore});
  hv::DomainId domid = 12;  // its guest runs on core 1
  ASSERT_TRUE(
      RunCo(netback->XsToolstackCreate(Dom0Ctx(), toolstack_client_.get(), domid, &bash_))
          .ok());
  for (int i = 0; i < 100; ++i) {
    engine_.Spawn(Hog(&cpu_, kBackendCore, Duration::Seconds(1)));
  }
  xs::XsClient guest_client(&engine_, &store_, domid);
  bool connected = false;
  engine_.Spawn(ConnectFrontend(netback, GuestCtx(domid), &guest_client, domid, &connected));
  ASSERT_TRUE(sim::RunUntilCondition(engine_, [&] { return connected; }));
  ASSERT_FALSE(netback->IsConnected(domid));  // the watcher is still behind

  bool destroyed = false;
  engine_.Spawn(
      DestroyDevice(netback, Dom0Ctx(), toolstack_client_.get(), domid, &bash_, &destroyed));
  EXPECT_TRUE(sim::RunUntilCondition(engine_, [&] { return destroyed; }));
  EXPECT_FALSE(netback->HasDevice(domid));
  EXPECT_FALSE(store_.store().Exists("/local/domain/0/backend/vif/12/0"));
}

TEST_F(DevicesTest, NoxsPathFullHandshake) {
  BackendDriver* netback = MakeBackend(hv::DeviceType::kNet);
  netback->set_udev_hotplug(&xendevd_);
  hv::DomainId domid = 11;

  auto info = RunCo(netback->NoxsCreate(Dom0Ctx(), domid));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->type, hv::DeviceType::kNet);
  EXPECT_NE(info->event_channel, hv::kInvalidPort);
  EXPECT_NE(info->grant_ref, hv::kInvalidGrant);
  engine_.Run();  // xendevd udev handling.
  EXPECT_TRUE(switch_.HasPort("vif11.0"));

  ASSERT_TRUE(RunCo(netback->NoxsFrontendConnect(GuestCtx(domid), domid, *info)).ok());
  engine_.Run();
  EXPECT_TRUE(netback->IsConnected(domid));

  // noxs never touched the store.
  EXPECT_FALSE(store_.store().Exists("/local/domain/0/backend/vif/11"));
}

TEST_F(DevicesTest, NoxsPathMuchCheaperThanXenstorePath) {
  BackendDriver* xs_back = MakeBackend(hv::DeviceType::kNet);
  xs_back->StartXsWatcher(&store_, Dom0Ctx());
  TimePoint t0 = engine_.now();
  ASSERT_TRUE(
      RunCo(xs_back->XsToolstackCreate(Dom0Ctx(), toolstack_client_.get(), 21, &bash_)).ok());
  Duration xs_path = engine_.now() - t0;

  BackendDriver* noxs_back = MakeBackend(hv::DeviceType::kNet);
  noxs_back->set_udev_hotplug(&xendevd_);
  t0 = engine_.now();
  ASSERT_TRUE(RunCo(noxs_back->NoxsCreate(Dom0Ctx(), 22)).ok());
  Duration noxs_path = engine_.now() - t0;

  // The XS path pays the store protocol + bash hotplug; noxs pays an ioctl.
  EXPECT_GT(xs_path.ns(), noxs_path.ns() * 20);
}

TEST_F(DevicesTest, NoxsDestroyReleasesResources) {
  BackendDriver* netback = MakeBackend(hv::DeviceType::kNet);
  netback->set_udev_hotplug(&xendevd_);
  hv::DomainId domid = 13;
  auto info = RunCo(netback->NoxsCreate(Dom0Ctx(), domid));
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(RunCo(netback->NoxsFrontendConnect(GuestCtx(domid), domid, *info)).ok());
  engine_.Run();
  ASSERT_TRUE(switch_.HasPort("vif13.0"));

  ASSERT_TRUE(RunCo(netback->NoxsDestroy(Dom0Ctx(), domid)).ok());
  EXPECT_FALSE(netback->HasDevice(domid));
  EXPECT_FALSE(switch_.HasPort("vif13.0"));
  EXPECT_FALSE(hv_.grant_table().IsActive(info->grant_ref));
  EXPECT_FALSE(hv_.event_channels().IsOpen(info->event_channel));
  EXPECT_EQ(pages_.FindDevice(info->grant_ref), nullptr);
}

TEST_F(DevicesTest, BlockBackendUsesBlockSetupCosts) {
  BackendDriver* blkback = MakeBackend(hv::DeviceType::kBlock);
  blkback->set_udev_hotplug(&xendevd_);
  auto info = RunCo(blkback->NoxsCreate(Dom0Ctx(), 31));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->type, hv::DeviceType::kBlock);
  engine_.Run();
  // No switch port for block devices.
  EXPECT_EQ(switch_.num_ports(), 0);
}

TEST_F(DevicesTest, HotplugBashMuchSlowerThanXendevd) {
  TimePoint t0 = engine_.now();
  RunCo([](DevicesTest* t) -> sim::Co<bool> {
    co_await t->bash_.Setup(t->Dom0Ctx(), hv::DeviceType::kNet);
    co_return true;
  }(this));
  Duration bash_time = engine_.now() - t0;

  t0 = engine_.now();
  RunCo([](DevicesTest* t) -> sim::Co<bool> {
    co_await t->xendevd_.Setup(t->Dom0Ctx(), hv::DeviceType::kNet);
    co_return true;
  }(this));
  Duration xendevd_time = engine_.now() - t0;

  EXPECT_GT(bash_time.ms(), 10.0);   // "tens of milliseconds"
  EXPECT_LT(xendevd_time.ms(), 2.0);  // binary daemon, no fork
  EXPECT_GT(bash_time.ns(), xendevd_time.ns() * 10);
}

TEST_F(DevicesTest, PacketsFlowToGuestRxAfterConnect) {
  BackendDriver* netback = MakeBackend(hv::DeviceType::kNet);
  netback->set_udev_hotplug(&xendevd_);
  hv::DomainId domid = 17;
  auto info = RunCo(netback->NoxsCreate(Dom0Ctx(), domid));
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(RunCo(netback->NoxsFrontendConnect(GuestCtx(domid), domid, *info)).ok());
  engine_.Run();

  int received = 0;
  netback->SetGuestRx(domid, [&](const xnet::Packet&) { ++received; });

  xnet::Packet p;
  p.dst = "vif17.0";
  RunCo([](DevicesTest* t, xnet::Packet p) -> sim::Co<bool> {
    co_await t->switch_.Forward(t->Dom0Ctx(), p);
    co_return true;
  }(this, p));
  engine_.Run();
  EXPECT_EQ(received, 1);
}

// --- sysctl ------------------------------------------------------------------

TEST_F(DevicesTest, SysctlSuspendHandshake) {
  SysctlBackend sysctl(&engine_, &hv_, &pages_, &costs_);
  hv::DomainId domid = *RunCo(hv_.DomainCreate(Dom0Ctx()));
  ASSERT_TRUE(RunCo(hv_.DomainFinishBuild(Dom0Ctx(), domid)).ok());
  ASSERT_TRUE(RunCo(hv_.DomainUnpause(Dom0Ctx(), domid)).ok());

  auto info = RunCo(sysctl.Create(Dom0Ctx(), domid));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->type, hv::DeviceType::kSysctl);

  // Guest connects its front-end; on suspend request it saves state, tells
  // the hypervisor, and acks.
  bool guest_saved_state = false;
  ASSERT_TRUE(RunCo(sysctl.FrontendConnect(
                        GuestCtx(domid), domid, *info,
                        [&, domid](hv::ShutdownReason reason) -> sim::Co<void> {
                          guest_saved_state = true;
                          sim::ExecCtx gctx = GuestCtx(domid);
                          co_await gctx.Work(Duration::Micros(200));
                          (void)co_await hv_.DomainShutdown(gctx, domid, reason);
                          co_await sysctl.Ack(gctx, domid);
                        }))
                  .ok());

  lv::Status suspended =
      RunCo(sysctl.RequestShutdown(Dom0Ctx(), domid, hv::ShutdownReason::kSuspend));
  ASSERT_TRUE(suspended.ok());
  EXPECT_TRUE(guest_saved_state);
  EXPECT_EQ(hv_.FindDomain(domid)->state(), hv::DomainState::kSuspended);
}

TEST_F(DevicesTest, SysctlRequestWithoutDeviceFails) {
  SysctlBackend sysctl(&engine_, &hv_, &pages_, &costs_);
  EXPECT_EQ(RunCo(sysctl.RequestShutdown(Dom0Ctx(), 99, hv::ShutdownReason::kSuspend)).code(),
            ErrorCode::kNotFound);
}

TEST_F(DevicesTest, SysctlDestroyCleansUp) {
  SysctlBackend sysctl(&engine_, &hv_, &pages_, &costs_);
  auto info = RunCo(sysctl.Create(Dom0Ctx(), 41));
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(RunCo(sysctl.Destroy(Dom0Ctx(), 41)).ok());
  EXPECT_FALSE(sysctl.HasDevice(41));
  EXPECT_FALSE(hv_.grant_table().IsActive(info->grant_ref));
}

}  // namespace
}  // namespace xdev
