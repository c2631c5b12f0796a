// Tests for the network substrate: software switch forwarding, broadcast,
// overload drops, and the TCP/link model used by migration.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/net/link.h"
#include "src/net/switch.h"
#include "src/sim/engine.h"

namespace xnet {
namespace {

using lv::Bytes;
using lv::Duration;
using lv::TimePoint;

class NetTest : public ::testing::Test {
 protected:
  NetTest() : cpu_(&engine_, 2), switch_(&engine_) {}

  sim::ExecCtx Ctx() { return sim::ExecCtx{&cpu_, 0, sim::kHostOwner}; }

  void Forward(Packet p) {
    engine_.Spawn([](Switch& sw, sim::ExecCtx ctx, Packet p) -> sim::Co<void> {
      co_await sw.Forward(ctx, p);
    }(switch_, Ctx(), std::move(p)));
    engine_.Run();
  }

  sim::Engine engine_;
  sim::CpuScheduler cpu_;
  Switch switch_;
};

TEST_F(NetTest, AddRemovePort) {
  EXPECT_TRUE(switch_.AddPort("vif1.0", [](const Packet&) {}).ok());
  EXPECT_EQ(switch_.AddPort("vif1.0", [](const Packet&) {}).code(),
            lv::ErrorCode::kAlreadyExists);
  EXPECT_TRUE(switch_.HasPort("vif1.0"));
  EXPECT_TRUE(switch_.RemovePort("vif1.0").ok());
  EXPECT_EQ(switch_.RemovePort("vif1.0").code(), lv::ErrorCode::kNotFound);
}

TEST_F(NetTest, UnicastDelivery) {
  int got_a = 0;
  int got_b = 0;
  (void)switch_.AddPort("a", [&](const Packet&) { ++got_a; });
  (void)switch_.AddPort("b", [&](const Packet&) { ++got_b; });
  Packet p;
  p.src = "a";
  p.dst = "b";
  Forward(p);
  EXPECT_EQ(got_a, 0);
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(switch_.stats().forwarded, 1);
}

TEST_F(NetTest, UnknownDestinationDropped) {
  Packet p;
  p.dst = "nowhere";
  Forward(p);
  EXPECT_EQ(switch_.stats().dropped_no_port, 1);
}

TEST_F(NetTest, BroadcastReachesAllButIngress) {
  int got_a = 0;
  int got_b = 0;
  int got_c = 0;
  (void)switch_.AddPort("a", [&](const Packet&) { ++got_a; });
  (void)switch_.AddPort("b", [&](const Packet&) { ++got_b; });
  (void)switch_.AddPort("c", [&](const Packet&) { ++got_c; });
  Packet p;
  p.kind = PacketKind::kArp;
  p.src = "a";
  p.dst = "";  // broadcast
  Forward(p);
  EXPECT_EQ(got_a, 0);
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_c, 1);
  EXPECT_EQ(switch_.stats().broadcasts, 1);
}

// A broadcast reaches the other ports in name order: neither the order they
// were added in nor the numeric order of their domids.
TEST_F(NetTest, BroadcastDeliversInPortNameOrder) {
  std::vector<std::string> delivered;
  for (const char* name : {"vif2.0", "vif10.0", "vif1.0", "vif11.0"}) {
    std::string port = name;
    (void)switch_.AddPort(port, [&delivered, port](const Packet&) { delivered.push_back(port); });
  }
  Packet p;
  p.kind = PacketKind::kArp;
  p.src = "vif2.0";
  p.dst = "";  // broadcast
  Forward(p);
  EXPECT_EQ(delivered, (std::vector<std::string>{"vif1.0", "vif10.0", "vif11.0"}));
}

TEST_F(NetTest, OverloadCausesDrops) {
  Switch::Costs costs;
  costs.capacity_pps = 1000.0;  // 10 packets per 10ms window.
  Switch small(&engine_, costs);
  int delivered = 0;
  (void)small.AddPort("sink", [&](const Packet&) { ++delivered; });
  engine_.Spawn([](Switch& sw, sim::ExecCtx ctx) -> sim::Co<void> {
    for (int i = 0; i < 100; ++i) {
      Packet p;
      p.dst = "sink";
      co_await sw.Forward(ctx, p);
    }
  }(small, Ctx()));
  engine_.Run();
  EXPECT_GT(small.stats().dropped_overload, 0);
  EXPECT_LT(delivered, 100);
  EXPECT_EQ(delivered + small.stats().dropped_overload, 100);
}

TEST_F(NetTest, CapacityRecoversNextWindow) {
  Switch::Costs costs;
  costs.capacity_pps = 1000.0;
  Switch small(&engine_, costs);
  int delivered = 0;
  (void)small.AddPort("sink", [&](const Packet&) { ++delivered; });
  // 5 packets every 10ms for 10 windows: always under capacity.
  engine_.Spawn([](sim::Engine& e, Switch& sw, sim::ExecCtx ctx) -> sim::Co<void> {
    for (int w = 0; w < 10; ++w) {
      for (int i = 0; i < 5; ++i) {
        Packet p;
        p.dst = "sink";
        co_await sw.Forward(ctx, p);
      }
      co_await e.Sleep(Duration::Millis(10));
    }
  }(engine_, small, Ctx()));
  engine_.Run();
  EXPECT_EQ(small.stats().dropped_overload, 0);
  EXPECT_EQ(delivered, 50);
}

TEST(LinkTest, SerializationDelayMatchesBandwidth) {
  sim::Engine engine;
  Link link(&engine, /*gbps=*/1.0, Duration::Millis(10));
  // 1 Gbps = 125 MB/s; 125 MB takes 1 s.
  EXPECT_NEAR(link.SerializationDelay(Bytes::Count(125000000)).secs(), 1.0, 1e-9);
  EXPECT_NEAR(link.SerializationDelay(Bytes::MiB(1)).ms(), 8.39, 0.01);
}

TEST(LinkTest, TcpConnectCostsOneRtt) {
  sim::Engine engine;
  Link link(&engine, 1.0, Duration::Millis(10));
  TcpConnection conn(&link);
  TimePoint t0 = engine.now();
  engine.Spawn([](TcpConnection& c) -> sim::Co<void> { co_await c.Connect(); }(conn));
  engine.Run();
  EXPECT_NEAR((engine.now() - t0).ms(), 10.0, 1e-6);
  EXPECT_TRUE(conn.connected());
}

TEST(LinkTest, MigrationSizedTransfer) {
  sim::Engine engine;
  // The paper's personal-firewall use case: 1 Gbps, 10 ms link; migrating a
  // ClickOS VM (8 MB of RAM) takes ~150 ms including handshakes.
  Link link(&engine, 1.0, Duration::Millis(10));
  TcpConnection conn(&link);
  engine.Spawn([](TcpConnection& c) -> sim::Co<void> {
    co_await c.Connect();
    co_await c.Send(Bytes::MiB(8));
  }(conn));
  engine.Run();
  double total_ms = engine.now().ms();
  EXPECT_GT(total_ms, 75.0);
  EXPECT_LT(total_ms, 200.0);
  EXPECT_EQ(conn.bytes_sent(), Bytes::MiB(8));
}

}  // namespace
}  // namespace xnet
