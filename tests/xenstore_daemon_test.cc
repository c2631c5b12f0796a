// Tests for the xenstored daemon: protocol costs, serialization, watch
// delivery, transaction retry behaviour and access-log rotation spikes.
#include <gtest/gtest.h>

#include <optional>

#include "src/base/strings.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"
#include "src/xenstore/daemon.h"

namespace xs {
namespace {

using lv::Duration;
using lv::ErrorCode;
using lv::TimePoint;

class DaemonTest : public ::testing::Test {
 protected:
  DaemonTest() : cpu_(&engine_, 2) {}

  void StartDaemon(Costs costs = Costs()) {
    daemon_ = std::make_unique<Daemon>(&engine_, costs);
    daemon_->Start(sim::ExecCtx{&cpu_, 0, sim::kHostOwner});
    client_ = std::make_unique<XsClient>(&engine_, daemon_.get(), hv::kDom0);
  }

  void TearDown() override {
    if (daemon_ && daemon_->running()) {
      client_.reset();
      daemon_->Stop();
      engine_.Run();
    }
  }

  // Client work happens on core 1, daemon on core 0 (no CPU interference).
  sim::ExecCtx Ctx() { return sim::ExecCtx{&cpu_, 1, sim::kHostOwner}; }

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
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<XsClient> client_;
};

TEST_F(DaemonTest, WriteReadRoundTrip) {
  StartDaemon();
  EXPECT_TRUE(RunCo(client_->Write(Ctx(), "/local/domain/1/name", "vm1")).ok());
  auto r = RunCo(client_->Read(Ctx(), "/local/domain/1/name"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "vm1");
  EXPECT_EQ(daemon_->stats().ops, 2);
}

TEST_F(DaemonTest, EveryOpCostsInterruptsAndProcessing) {
  StartDaemon();
  TimePoint t0 = engine_.now();
  EXPECT_TRUE(RunCo(client_->Write(Ctx(), "/k", "v")).ok());
  Duration cost = engine_.now() - t0;
  // At least 4 soft interrupts (2 client + 2 daemon) + marshalling + base.
  Costs c;
  Duration floor = c.soft_interrupt * 4.0 + c.client_marshal * 2.0 + c.daemon_base;
  EXPECT_GE(cost.ns(), floor.ns());
  // And it should be well under a millisecond for an empty store.
  EXPECT_LT(cost.ms(), 1.0);
}

TEST_F(DaemonTest, RequestsAreSerializedThroughOneLoop) {
  StartDaemon();
  TimePoint t0 = engine_.now();
  int done = 0;
  XsClient* client = client_.get();
  sim::ExecCtx ctx = Ctx();
  for (int i = 0; i < 10; ++i) {
    engine_.Spawn([](XsClient* c, sim::ExecCtx ctx, int i, int& d) -> sim::Co<void> {
      (void)co_await c->Write(ctx, lv::StrFormat("/k/%d", i), "v");
      ++d;
    }(client, ctx, i, done));
  }
  engine_.Run();
  EXPECT_EQ(done, 10);
  // Ten concurrent ops must take ~10x the daemon processing time of one op
  // (they serialize), not ~1x.
  Duration elapsed = engine_.now() - t0;
  Costs c;
  Duration one_op_daemon = c.soft_interrupt * 2.0 + c.daemon_base + c.log_append;
  EXPECT_GE(elapsed.ns(), (one_op_daemon * 10.0).ns());
}

TEST_F(DaemonTest, WatchEventDeliveredToClient) {
  StartDaemon();
  EXPECT_TRUE(RunCo(client_->Watch(Ctx(), "/local/domain/7", "mytok")).ok());
  // Registration fires immediately once.
  engine_.Run();
  ASSERT_EQ(client_->pending_watch_events(), 1u);

  std::optional<WatchEvent> got;
  engine_.Spawn([](XsClient& c, std::optional<WatchEvent>& g) -> sim::Co<void> {
    g = co_await c.NextWatchEvent();  // Drain registration event.
    g = co_await c.NextWatchEvent();  // Wait for the real one.
  }(*client_, got));
  engine_.Run();

  EXPECT_TRUE(RunCo(client_->Write(Ctx(), "/local/domain/7/state", "4")).ok());
  engine_.Run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->token, "mytok");
  EXPECT_EQ(got->fired_path, "local/domain/7/state");
  EXPECT_EQ(daemon_->stats().watch_events, 2);
}

TEST_F(DaemonTest, TransactionConflictReportsConflictCode) {
  StartDaemon();
  TxnId txn = *RunCo(client_->TxBegin(Ctx()));
  ASSERT_TRUE(RunCo(client_->Write(Ctx(), "/c", "txn", txn)).ok());
  ASSERT_TRUE(RunCo(client_->Write(Ctx(), "/c", "direct")).ok());
  lv::Status commit = RunCo(client_->TxCommit(Ctx(), txn));
  EXPECT_EQ(commit.code(), ErrorCode::kConflict);
  EXPECT_EQ(daemon_->stats().conflicts, 1);
}

TEST_F(DaemonTest, UniqueNameRejectsDuplicate) {
  StartDaemon();
  EXPECT_TRUE(RunCo(client_->WriteUniqueName(Ctx(), 1, "web")).ok());
  lv::Status dup = RunCo(client_->WriteUniqueName(Ctx(), 2, "web"));
  EXPECT_EQ(dup.code(), ErrorCode::kAlreadyExists);
  EXPECT_TRUE(RunCo(client_->WriteUniqueName(Ctx(), 2, "web2")).ok());
}

TEST_F(DaemonTest, UniqueNameCostGrowsWithDomainCount) {
  StartDaemon();
  // Install 200 names cheaply (directly in the store; we measure the op).
  for (int i = 100; i < 300; ++i) {
    (void)daemon_->store().Write(lv::StrFormat("/local/domain/%d/name", i),
                                 lv::StrFormat("vm%d", i), hv::kDom0);
  }
  TimePoint t0 = engine_.now();
  EXPECT_TRUE(RunCo(client_->WriteUniqueName(Ctx(), 1, "first")).ok());
  Duration with_200 = engine_.now() - t0;

  for (int i = 300; i < 1100; ++i) {
    (void)daemon_->store().Write(lv::StrFormat("/local/domain/%d/name", i),
                                 lv::StrFormat("vm%d", i), hv::kDom0);
  }
  t0 = engine_.now();
  EXPECT_TRUE(RunCo(client_->WriteUniqueName(Ctx(), 2, "second")).ok());
  Duration with_1000 = engine_.now() - t0;
  EXPECT_GT(with_1000.ns(), with_200.ns() * 3);
}

TEST_F(DaemonTest, MutationCostGrowsWithWatchCount) {
  StartDaemon();
  TimePoint t0 = engine_.now();
  EXPECT_TRUE(RunCo(client_->Write(Ctx(), "/probe", "v")).ok());
  Duration no_watches = engine_.now() - t0;

  for (int i = 0; i < 3000; ++i) {
    (void)daemon_->store().AddWatch(99, lv::StrFormat("/w/%d", i), "t");
  }
  t0 = engine_.now();
  EXPECT_TRUE(RunCo(client_->Write(Ctx(), "/probe", "v2")).ok());
  Duration many_watches = engine_.now() - t0;
  EXPECT_GT(many_watches.ns(), no_watches.ns() * 5);
}

TEST_F(DaemonTest, LogRotationCausesSpike) {
  Costs costs;
  costs.log_rotate_lines = 100;  // Rotate quickly for the test.
  StartDaemon(costs);
  Duration max_op;
  Duration min_op = Duration::Seconds(999);
  for (int i = 0; i < 150; ++i) {
    TimePoint t0 = engine_.now();
    EXPECT_TRUE(RunCo(client_->Write(Ctx(), "/k", "v")).ok());
    Duration d = engine_.now() - t0;
    max_op = std::max(max_op, d);
    min_op = std::min(min_op, d);
  }
  EXPECT_EQ(daemon_->stats().rotations, 1);
  // The rotation op pays 20 * 15ms extra.
  EXPECT_GT(max_op.ms(), min_op.ms() + 250.0);
}

TEST_F(DaemonTest, DisablingLoggingRemovesRotation) {
  Costs costs;
  costs.logging_enabled = false;
  costs.log_rotate_lines = 10;
  StartDaemon(costs);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(RunCo(client_->Write(Ctx(), "/k", "v")).ok());
  }
  EXPECT_EQ(daemon_->stats().rotations, 0);
}

TEST_F(DaemonTest, RmAndReadMissing) {
  StartDaemon();
  EXPECT_TRUE(RunCo(client_->Write(Ctx(), "/gone", "x")).ok());
  EXPECT_TRUE(RunCo(client_->Rm(Ctx(), "/gone")).ok());
  EXPECT_EQ(RunCo(client_->Read(Ctx(), "/gone")).code(), ErrorCode::kNotFound);
}

TEST_F(DaemonTest, UnregisteredClientWatchesDropped) {
  StartDaemon();
  auto other = std::make_unique<XsClient>(&engine_, daemon_.get(), 5);
  EXPECT_TRUE(RunCo(other->Watch(Ctx(), "/d", "t")).ok());
  other.reset();  // Destructor unregisters + removes watches.
  EXPECT_TRUE(RunCo(client_->Write(Ctx(), "/d/x", "v")).ok());
  engine_.Run();
  // No crash, no event delivered anywhere.
  EXPECT_EQ(daemon_->store().num_watches(), 0);
}

}  // namespace
}  // namespace xs
