// Tests for the Docker-like container runtime and the fork/exec baseline.
#include <gtest/gtest.h>

#include "src/base/stats.h"
#include "src/container/container.h"
#include "src/sim/run.h"

namespace container {
namespace {

using lv::Bytes;
using lv::Samples;
using lv::Duration;
using lv::TimePoint;

class ContainerTest : public ::testing::Test {
 public:
  ContainerTest()
      : cpu_(&engine_, 4), memory_(Bytes::GiB(128)), docker_(&engine_, &memory_) {}

  sim::ExecCtx Ctx() { return sim::ExecCtx{&cpu_, 0, sim::kHostOwner}; }

  template <typename T>
  T Run(sim::Co<T> co) {
    return sim::RunToCompletion(engine_, std::move(co));
  }

  sim::Engine engine_;
  sim::CpuScheduler cpu_;
  hv::MemoryPool memory_;
  DockerRuntime docker_;
};

TEST_F(ContainerTest, RunStartsContainerInExpectedTime) {
  TimePoint t0 = engine_.now();
  auto id = Run(docker_.Run(Ctx(), MicropythonContainer()));
  ASSERT_TRUE(id.ok());
  Duration start = engine_.now() - t0;
  // "Docker containers start in around 200ms" (§4.2) — the first one also
  // pays an arena growth.
  EXPECT_GT(start.ms(), 100.0);
  EXPECT_LT(start.ms(), 1500.0);
  EXPECT_EQ(docker_.count(), 1);
}

TEST_F(ContainerTest, StartTimeGrowsWithContainerCount) {
  Duration early;
  Duration late;
  for (int i = 0; i < 300; ++i) {
    TimePoint t0 = engine_.now();
    ASSERT_TRUE(Run(docker_.Run(Ctx(), MinimalContainer())).ok());
    Duration d = engine_.now() - t0;
    if (i == 5) {
      early = d;
    }
    if (i == 299 && docker_.stats().arena_growths == 0) {
      late = d;
    }
    late = d;
  }
  EXPECT_GT(late.ns(), early.ns());
}

TEST_F(ContainerTest, ArenaGrowthCausesSpikesAndMemoryJumps) {
  Costs costs;
  costs.initial_arena_containers = 4;  // Exercise growth quickly.
  DockerRuntime docker(&engine_, &memory_, costs);
  Bytes mem_before = docker.MemoryUsed();
  Samples starts;
  for (int i = 0; i < 40; ++i) {
    TimePoint t0 = engine_.now();
    ASSERT_TRUE(Run(docker.Run(Ctx(), MinimalContainer())).ok());
    starts.AddDuration(engine_.now() - t0);
  }
  // The initial arena (4 containers) is pre-reserved; growth at 5, 9, 17, 33.
  EXPECT_EQ(docker.stats().arena_growths, 4);
  // Spikes: the max start is much larger than the median.
  EXPECT_GT(starts.max(), starts.Median() * 2);
  EXPECT_GT((docker.MemoryUsed() - mem_before).mib(), 100.0);
}

TEST_F(ContainerTest, OutOfMemoryStopsNewContainers) {
  hv::MemoryPool small(Bytes::MiB(256));
  Costs costs;
  costs.daemon_arena_unit = Bytes::MiB(1);
  costs.initial_arena_containers = 8;
  DockerRuntime docker(&engine_, &small, costs);
  int started = 0;
  for (int i = 0; i < 100; ++i) {
    auto id = Run(docker.Run(Ctx(), MinimalContainer()));
    if (!id.ok()) {
      EXPECT_EQ(id.code(), lv::ErrorCode::kOutOfMemory);
      break;
    }
    ++started;
  }
  EXPECT_GT(started, 0);
  EXPECT_LT(started, 100);
  EXPECT_GT(docker.stats().oom_failures, 0);
}

TEST_F(ContainerTest, MemoryPerContainerMatchesPaper) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(Run(docker_.Run(Ctx(), MicropythonContainer())).ok());
  }
  // ~5 MB per container + daemon arena; "5GB for Docker" at 1000 containers.
  Bytes used = docker_.MemoryUsed();
  EXPECT_GT(used.mib(), 450.0);
  EXPECT_LT(used.gib(), 4.0);
}

TEST_F(ContainerTest, ForkExecLatencyDistribution) {
  ProcessRuntime procs(&engine_, &memory_);
  Samples lat;
  for (int i = 0; i < 2000; ++i) {
    TimePoint t0 = engine_.now();
    ASSERT_TRUE(Run(procs.ForkExec(Ctx())).ok());
    lat.AddDuration(engine_.now() - t0);
  }
  // "3.5ms on average (9ms at the 90% percentile)".
  EXPECT_NEAR(lat.mean(), 3.9, 1.2);
  EXPECT_NEAR(lat.Quantile(0.9), 8.5, 2.5);
  EXPECT_EQ(procs.count(), 2000);
}

TEST_F(ContainerTest, ForkExecIndependentOfProcessCount) {
  ProcessRuntime procs(&engine_, &memory_);
  Samples first;
  Samples last;
  for (int i = 0; i < 3000; ++i) {
    TimePoint t0 = engine_.now();
    ASSERT_TRUE(Run(procs.ForkExec(Ctx())).ok());
    Duration d = engine_.now() - t0;
    if (i < 300) {
      first.AddDuration(d);
    }
    if (i >= 2700) {
      last.AddDuration(d);
    }
  }
  EXPECT_NEAR(first.mean(), last.mean(), first.mean() * 0.35);
}

}  // namespace
}  // namespace container
