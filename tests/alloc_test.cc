// Allocation budgets of the simulator's hot paths. A replacement global
// operator new counts every call, and each test checks how many calls one
// warmed-up operation makes. The counts are exact for a given toolchain, so
// they move only when the code does. This is its own binary so that the
// replacement counts nothing but these tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/hv/types.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/xenstore/daemon.h"
#include "src/xenstore/store.h"

namespace {

int64_t g_news = 0;  // calls to the global operator new so far

}  // namespace

// The replacements pair malloc with free. Once GCC inlines them it sees
// free() reach a pointer that operator new returned, and warns.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  ++g_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

sim::Co<int> Leaf(int x) { co_return x + 1; }
sim::Co<int> Middle(int x) { co_return 2 * co_await Leaf(x); }
sim::Co<int> Top(int x) { co_return 3 + co_await Middle(x); }

// Calls made by one three-level Co<int> call, from creating its top frame
// to destroying it. Nothing in it suspends, so Start runs it to the end.
int64_t ThreeFrameCallNews() {
  int64_t before = g_news;
  {
    sim::Co<int> top = Top(1);
    top.Start();
    EXPECT_TRUE(top.done());
    EXPECT_EQ(top.await_resume(), 7);
  }
  return g_news - before;
}

TEST(AllocTest, ThreeFrameCallReusesItsFrames) {
  (void)ThreeFrameCallNews();  // fills the free lists
  // Under AddressSanitizer every frame comes from operator new.
  EXPECT_EQ(ThreeFrameCallNews(), sim::internal::kRecycleFrames ? 0 : 3);
}

// 35 bytes: longer than std::string's inline buffer.
constexpr char kPath[] = "/local/domain/12/device/vif/0/state";
static_assert(sizeof(kPath) - 1 == 35);

// Reads or writes kPath once per entry of *calls, back to back, and stores
// the calls each round trip makes from its start to its result.
sim::Co<void> RoundTrips(xs::XsClient* client, sim::ExecCtx ctx, bool write,
                         std::vector<int64_t>* calls, bool* done) {
  const std::string path = kPath;
  for (int64_t& made : *calls) {
    int64_t before = g_news;
    bool ok;
    if (write) {
      ok = (co_await client->Write(ctx, path, "4")).ok();
    } else {
      ok = (co_await client->Read(ctx, path)).ok();
    }
    made = g_news - before;
    EXPECT_TRUE(ok);
  }
  *done = true;
}

// GetParam() is true for writes, false for reads.
class XsRoundTripTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    daemon_.Start(sim::ExecCtx{&cpu_, 0});
    std::vector<int64_t> create(1);
    Run(/*write=*/true, &create);
  }

  // Fills *calls, one entry per round trip.
  void Run(bool write, std::vector<int64_t>* calls) {
    bool done = false;
    engine_.Spawn(RoundTrips(&client_, sim::ExecCtx{&cpu_, 1}, write, calls, &done));
    while (!done && engine_.Step()) {
    }
    ASSERT_TRUE(done);
  }

  sim::Engine engine_;
  sim::CpuScheduler cpu_{&engine_, 2};
  xs::Daemon daemon_{&engine_};
  xs::XsClient client_{&engine_, &daemon_, hv::kDom0};
};

// Of the calls left, one copies the caller's path into the request and one
// makes the reply's shared state. Under AddressSanitizer, the three frames
// (Read or Write, the client's Call and the daemon's Process) add three.
TEST_P(XsRoundTripTest, ExistingPathCostsAtMostTwoCalls) {
  // Fills the free lists, the engine's slab and the store's scratch buffers.
  std::vector<int64_t> calls(8);
  Run(GetParam(), &calls);
  calls.assign(200, 0);
  Run(GetParam(), &calls);
  for (size_t i = 0; i < calls.size(); ++i) {
    EXPECT_LE(calls[i], sim::internal::kRecycleFrames ? 2 : 5) << "round trip " << i;
  }
}

// A write that creates one node under an existing parent makes one call:
// the map node that holds the child, whose short name and value stay in
// their strings' inline buffers. A child held through a unique_ptr took
// two.
TEST(AllocTest, WriteCreatingOneNodeMakesOneCall) {
  xs::Store store;
  // Fills the store's scratch buffers and its walk cursor at this depth.
  ASSERT_TRUE(store.Write(kPath, "1", hv::kDom0).ok());
  for (int i = 0; i < 16; ++i) {
    std::string path = lv::StrFormat("/local/domain/12/device/vif/0/k%d", i);
    int64_t before = g_news;
    ASSERT_TRUE(store.Write(path, "4", hv::kDom0).ok());
    EXPECT_EQ(g_news - before, 1) << path;
  }
  EXPECT_EQ(store.num_nodes(), 7 + 16);
}

INSTANTIATE_TEST_SUITE_P(ReadAndWrite, XsRoundTripTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Write" : "Read";
                         });

}  // namespace
