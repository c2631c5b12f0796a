// Unit tests for the DES engine, coroutine tasks, sync primitives and the
// processor-sharing CPU scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace sim {
namespace {

using lv::Duration;
using lv::TimePoint;

TEST(EngineTest, EventsRunInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.Schedule(Duration::Millis(30), [&] { order.push_back(3); });
  engine.Schedule(Duration::Millis(10), [&] { order.push_back(1); });
  engine.Schedule(Duration::Millis(20), [&] { order.push_back(2); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now().ms(), 30.0);
}

TEST(EngineTest, SameTimeEventsRunFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.Schedule(Duration::Millis(1), [&order, i] { order.push_back(i); });
  }
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EngineTest, CancelledEventDoesNotRun) {
  Engine engine;
  bool ran = false;
  EventHandle h = engine.Schedule(Duration::Millis(5), [&] { ran = true; });
  h.Cancel();
  engine.Run();
  EXPECT_FALSE(ran);
}

TEST(EngineTest, RunUntilStopsAtHorizon) {
  Engine engine;
  int count = 0;
  engine.Schedule(Duration::Millis(5), [&] { ++count; });
  engine.Schedule(Duration::Millis(15), [&] { ++count; });
  engine.RunUntil(TimePoint() + Duration::Millis(10));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(engine.now().ms(), 10.0);
  engine.Run();
  EXPECT_EQ(count, 2);
}

TEST(EngineTest, NestedScheduling) {
  Engine engine;
  std::vector<double> times;
  engine.Schedule(Duration::Millis(1), [&] {
    times.push_back(engine.now().ms());
    engine.Schedule(Duration::Millis(2), [&] { times.push_back(engine.now().ms()); });
  });
  engine.Run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 3.0}));
}

Co<int> Add(Engine& engine, int a, int b) {
  co_await engine.Sleep(Duration::Millis(1));
  co_return a + b;
}

Co<int> Chain(Engine& engine) {
  int x = co_await Add(engine, 1, 2);
  int y = co_await Add(engine, x, 10);
  co_return y;
}

TEST(CoTest, NestedAwaitsPropagateValues) {
  Engine engine;
  int result = 0;
  engine.Spawn([](Engine& e, int& out) -> Co<void> {
    out = co_await Chain(e);
  }(engine, result));
  engine.Run();
  EXPECT_EQ(result, 13);
  EXPECT_EQ(engine.now().ms(), 2.0);
}

TEST(CoTest, SpawnRunsUntilFirstSuspension) {
  Engine engine;
  bool before = false;
  bool after = false;
  engine.Spawn([](Engine& e, bool& b, bool& a) -> Co<void> {
    b = true;
    co_await e.Sleep(Duration::Millis(1));
    a = true;
  }(engine, before, after));
  EXPECT_TRUE(before);
  EXPECT_FALSE(after);
  engine.Run();
  EXPECT_TRUE(after);
}

TEST(CoTest, ExceptionPropagatesToAwaiter) {
  Engine engine;
  bool caught = false;
  engine.Spawn([](Engine& e, bool& c) -> Co<void> {
    auto thrower = [](Engine& en) -> Co<int> {
      co_await en.Sleep(Duration::Millis(1));
      throw std::runtime_error("boom");
    };
    try {
      co_await thrower(e);
    } catch (const std::runtime_error&) {
      c = true;
    }
  }(engine, caught));
  engine.Run();
  EXPECT_TRUE(caught);
}

TEST(CoTest, ManyConcurrentTasks) {
  Engine engine;
  int done = 0;
  for (int i = 0; i < 1000; ++i) {
    engine.Spawn([](Engine& e, int& d, int i) -> Co<void> {
      co_await e.Sleep(Duration::Micros(i));
      ++d;
    }(engine, done, i));
  }
  engine.Run();
  EXPECT_EQ(done, 1000);
}

TEST(OneShotEventTest, WaitersResumeOnTrigger) {
  Engine engine;
  OneShotEvent ev(&engine);
  int resumed = 0;
  for (int i = 0; i < 3; ++i) {
    engine.Spawn([](OneShotEvent& e, int& r) -> Co<void> {
      co_await e.Wait();
      ++r;
    }(ev, resumed));
  }
  engine.Run();
  EXPECT_EQ(resumed, 0);
  ev.Trigger();
  engine.Run();
  EXPECT_EQ(resumed, 3);
}

TEST(OneShotEventTest, WaitAfterTriggerIsImmediate) {
  Engine engine;
  OneShotEvent ev(&engine);
  ev.Trigger();
  bool done = false;
  engine.Spawn([](OneShotEvent& e, bool& d) -> Co<void> {
    co_await e.Wait();
    d = true;
  }(ev, done));
  EXPECT_TRUE(done);  // No suspension needed.
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Engine engine;
  Semaphore sem(&engine, 2);
  int active = 0;
  int max_active = 0;
  for (int i = 0; i < 6; ++i) {
    engine.Spawn([](Engine& e, Semaphore& s, int& act, int& mx) -> Co<void> {
      co_await s.Acquire();
      ++act;
      mx = std::max(mx, act);
      co_await e.Sleep(Duration::Millis(10));
      --act;
      s.Release();
    }(engine, sem, active, max_active));
  }
  engine.Run();
  EXPECT_EQ(active, 0);
  EXPECT_EQ(max_active, 2);
  EXPECT_EQ(engine.now().ms(), 30.0);  // 6 tasks, 2 at a time, 10ms each.
}

TEST(SemaphoreTest, TryAcquire) {
  Engine engine;
  Semaphore sem(&engine, 1);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
}

TEST(ChannelTest, SendThenRecv) {
  Engine engine;
  Channel<int> ch(&engine);
  ch.Send(1);
  ch.Send(2);
  std::vector<int> got;
  engine.Spawn([](Channel<int>& c, std::vector<int>& g) -> Co<void> {
    g.push_back(co_await c.Recv());
    g.push_back(co_await c.Recv());
  }(ch, got));
  engine.Run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(ChannelTest, RecvBlocksUntilSend) {
  Engine engine;
  Channel<int> ch(&engine);
  int got = 0;
  engine.Spawn([](Channel<int>& c, int& g) -> Co<void> { g = co_await c.Recv(); }(ch, got));
  engine.Run();
  EXPECT_EQ(got, 0);
  ch.Send(7);
  engine.Run();
  EXPECT_EQ(got, 7);
}

TEST(ChannelTest, ManyProducersOneConsumer) {
  Engine engine;
  Channel<int> ch(&engine);
  int sum = 0;
  engine.Spawn([](Channel<int>& c, int& s) -> Co<void> {
    for (int i = 0; i < 10; ++i) {
      s += co_await c.Recv();
    }
  }(ch, sum));
  for (int i = 1; i <= 10; ++i) {
    engine.Schedule(Duration::Millis(i), [&ch, i] { ch.Send(i); });
  }
  engine.Run();
  EXPECT_EQ(sum, 55);
}

TEST(SharedFutureTest, MultipleGetters) {
  Engine engine;
  SharedFuture<int> fut(&engine);
  int sum = 0;
  for (int i = 0; i < 3; ++i) {
    engine.Spawn([](SharedFuture<int>& f, int& s) -> Co<void> {
      s += co_await f.Get();
    }(fut, sum));
  }
  engine.Run();
  EXPECT_EQ(sum, 0);
  fut.Set(5);
  engine.Run();
  EXPECT_EQ(sum, 15);
  EXPECT_TRUE(fut.has_value());
}

// Waits on `fut`, then appends `id` to *order.
Co<void> AwaitFuture(SharedFuture<int>* fut, std::vector<int>* order, int id) {
  (void)co_await fut->Get();
  order->push_back(id);
}

TEST(SharedFutureTest, WaitersAfterADeadInlineWaiterWakeInRegistrationOrder) {
  Engine engine;
  SharedFuture<int> fut(&engine);
  std::vector<int> order;
  // The first waiter takes the inline slot, and its owner destroys it
  // before Set.
  Co<void> first = AwaitFuture(&fut, &order, 1);
  first.Start();
  first = Co<void>();
  engine.Spawn(AwaitFuture(&fut, &order, 2));
  engine.Spawn(AwaitFuture(&fut, &order, 3));
  fut.Set(5);
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(SharedFutureTest, WaitersQueueBehindOnesRegisteredBeforeTheInlineWaiterDied) {
  Engine engine;
  SharedFuture<int> fut(&engine);
  std::vector<int> order;
  Co<void> first = AwaitFuture(&fut, &order, 1);
  first.Start();
  engine.Spawn(AwaitFuture(&fut, &order, 2));
  first = Co<void>();
  // The inline slot is free again, but waiter 2 registered before these.
  engine.Spawn(AwaitFuture(&fut, &order, 3));
  engine.Spawn(AwaitFuture(&fut, &order, 4));
  fut.Set(5);
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4}));
}

// Receives one value from `ch` into *got.
Co<void> ReceiveOne(Channel<int>* ch, std::vector<int>* got) {
  got->push_back(co_await ch->Recv());
}

TEST(ChannelTest, DestroyedReceiversLeaveTheQueueInOrder) {
  Engine engine;
  Channel<int> ch(&engine);
  std::vector<int> got[6];
  std::vector<Co<void>> rx;
  for (int i = 0; i < 6; ++i) {
    rx.push_back(ReceiveOne(&ch, &got[i]));
    if (i < 4) {
      rx.back().Start();
    }
  }
  // The head, a middle receiver and the tail die; the next receiver to park
  // queues behind the survivors.
  rx[0] = Co<void>();
  rx[2] = Co<void>();
  rx[3] = Co<void>();
  rx[4].Start();
  ch.Send(1);
  ch.Send(2);
  rx[5].Start();
  ch.Send(3);
  engine.Run();
  EXPECT_EQ(got[1], (std::vector<int>{1}));
  EXPECT_EQ(got[4], (std::vector<int>{2}));
  EXPECT_EQ(got[5], (std::vector<int>{3}));
  EXPECT_TRUE(got[0].empty() && got[2].empty() && got[3].empty());
  EXPECT_TRUE(ch.empty());
}

// --- Detached frames at engine teardown ------------------------------------

// Lives in a task's frame: records the task's id in *order when the frame
// is destroyed. With `respawn` set it also spawns a parked task of that id.
struct DestroyGuard {
  Engine* engine;
  OneShotEvent* never;
  std::vector<int>* order;
  int id;
  int respawn;
  ~DestroyGuard();
};

Co<void> ParkForever(Engine* engine, OneShotEvent* never, std::vector<int>* order, int id,
                     int respawn) {
  DestroyGuard guard{engine, never, order, id, respawn};
  co_await never->Wait();
}

DestroyGuard::~DestroyGuard() {
  order->push_back(id);
  if (respawn != 0) {
    engine->Spawn(ParkForever(engine, never, order, respawn, 0));
  }
}

Co<void> SleepThenFinish(Engine* engine, std::vector<int>* order, int id) {
  DestroyGuard guard{engine, nullptr, order, id, 0};
  co_await engine->Sleep(Duration::Millis(1));
}

TEST(EngineTest, DestroysParkedDetachedFramesNewestFirst) {
  std::vector<int> order;
  auto engine = std::make_unique<Engine>();
  OneShotEvent never(engine.get());
  engine->Spawn(SleepThenFinish(engine.get(), &order, 1));
  engine->Spawn(ParkForever(engine.get(), &never, &order, 2, 0));
  engine->Spawn(ParkForever(engine.get(), &never, &order, 3, /*respawn=*/5));
  engine->Spawn(ParkForever(engine.get(), &never, &order, 4, 0));
  engine->Run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  // Task 5, spawned while task 3's frame unwinds, is then the newest. Task
  // 1's frame destroyed itself when it finished and is not destroyed again.
  engine.reset();
  EXPECT_EQ(order, (std::vector<int>{1, 4, 3, 5, 2}));
}

// --- Frame recycler --------------------------------------------------------

TEST(FrameRecyclerTest, FreedFrameIsReusedWithinItsSizeClass) {
  if (!internal::kRecycleFrames) {
    GTEST_SKIP() << "AddressSanitizer builds bypass the recycler";
  }
  void* frame = internal::AllocateFrame(100);
  internal::FreeFrame(frame, 100);
  void* again = internal::AllocateFrame(128);  // 65 to 128 bytes: one class
  EXPECT_EQ(again, frame);
  internal::FreeFrame(again, 128);
}

TEST(FrameRecyclerTest, SizesAcrossAClassBoundaryGetDifferentClasses) {
  if (!internal::kRecycleFrames) {
    GTEST_SKIP() << "AddressSanitizer builds bypass the recycler";
  }
  void* small = internal::AllocateFrame(64);
  internal::FreeFrame(small, 64);
  void* larger = internal::AllocateFrame(65);
  EXPECT_NE(larger, small);
  void* small_again = internal::AllocateFrame(64);
  EXPECT_EQ(small_again, small);
  internal::FreeFrame(larger, 65);
  internal::FreeFrame(small_again, 64);
}

TEST(FrameRecyclerTest, FramesOverFourKiBBypassTheLists) {
  if (!internal::kRecycleFrames) {
    GTEST_SKIP() << "AddressSanitizer builds bypass the recycler";
  }
  constexpr size_t kMax = internal::kMaxRecycledFrame;
  ASSERT_EQ(kMax, 4096u);
  // `cached` heads the largest class's list. A bigger frame neither takes
  // it nor goes back onto that list.
  void* cached = internal::AllocateFrame(kMax);
  internal::FreeFrame(cached, kMax);
  void* big = internal::AllocateFrame(kMax + 1);
  EXPECT_NE(big, cached);
  internal::FreeFrame(big, kMax + 1);
  void* again = internal::AllocateFrame(kMax);
  EXPECT_EQ(again, cached);
  internal::FreeFrame(again, kMax);
}

// --- CPU scheduler -------------------------------------------------------

Co<void> Burn(Engine& engine, CpuScheduler& cpu, int core, Duration work, TimePoint* done,
              CpuOwner owner = kHostOwner) {
  co_await cpu.Run(core, work, owner);
  *done = engine.now();
}

TEST(CpuTest, SingleJobTakesItsWork) {
  Engine engine;
  CpuScheduler cpu(&engine, 1);
  TimePoint done;
  engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(10), &done));
  engine.Run();
  EXPECT_EQ(done.ms(), 10.0);
}

TEST(CpuTest, TwoEqualJobsShareTheCore) {
  Engine engine;
  CpuScheduler cpu(&engine, 1);
  TimePoint a;
  TimePoint b;
  engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(10), &a));
  engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(10), &b));
  engine.Run();
  // Processor sharing: both finish at 20ms.
  EXPECT_NEAR(a.ms(), 20.0, 1e-6);
  EXPECT_NEAR(b.ms(), 20.0, 1e-6);
}

TEST(CpuTest, ShortJobDelaysLongJobByItsWork) {
  Engine engine;
  CpuScheduler cpu(&engine, 1);
  TimePoint a;
  TimePoint b;
  engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(100), &a));
  engine.Schedule(Duration::Millis(10), [&] {
    engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(5), &b));
  });
  engine.Run();
  // Short job arrives at 10ms with long job at 90ms remaining; it runs at
  // rate 1/2 so completes at 20ms; long job finishes at 105ms total.
  EXPECT_NEAR(b.ms(), 20.0, 1e-6);
  EXPECT_NEAR(a.ms(), 105.0, 1e-6);
}

TEST(CpuTest, CoresAreIndependent) {
  Engine engine;
  CpuScheduler cpu(&engine, 2);
  TimePoint a;
  TimePoint b;
  engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(10), &a));
  engine.Spawn(Burn(engine, cpu, 1, Duration::Millis(10), &b));
  engine.Run();
  EXPECT_NEAR(a.ms(), 10.0, 1e-6);
  EXPECT_NEAR(b.ms(), 10.0, 1e-6);
}

TEST(CpuTest, ZeroWorkCompletesInline) {
  Engine engine;
  CpuScheduler cpu(&engine, 1);
  bool done = false;
  engine.Spawn([](CpuScheduler& c, bool& d) -> Co<void> {
    co_await c.Run(0, Duration());
    d = true;
  }(cpu, done));
  EXPECT_TRUE(done);
}

TEST(CpuTest, PerOwnerAccounting) {
  Engine engine;
  CpuScheduler cpu(&engine, 1);
  TimePoint a;
  TimePoint b;
  engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(10), &a, /*owner=*/1));
  engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(30), &b, /*owner=*/2));
  engine.Run();
  EXPECT_NEAR(cpu.ConsumedBy(1).ms(), 10.0, 0.01);
  EXPECT_NEAR(cpu.ConsumedBy(2).ms(), 30.0, 0.01);
  EXPECT_NEAR(cpu.BusyTime(0).ms(), 40.0, 0.01);
}

TEST(CpuTest, WindowUtilization) {
  Engine engine;
  CpuScheduler cpu(&engine, 2);
  TimePoint done;
  cpu.StartWindow();
  engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(10), &done));
  engine.RunUntil(TimePoint() + Duration::Millis(20));
  // One of two cores busy for 10 of 20 ms -> 25% machine-wide.
  EXPECT_NEAR(cpu.WindowUtilization(), 0.25, 0.001);
}

TEST(CpuTest, ManyJobsFairness) {
  Engine engine;
  CpuScheduler cpu(&engine, 1);
  std::vector<TimePoint> done(10);
  for (int i = 0; i < 10; ++i) {
    engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(1), &done[static_cast<size_t>(i)]));
  }
  engine.Run();
  for (const TimePoint& t : done) {
    EXPECT_NEAR(t.ms(), 10.0, 1e-6);  // All equal jobs end together under PS.
  }
}

// Destroying a scheduler disarms its cores' completion timers: the engine
// keeps stepping, another scheduler on it keeps its timing, and the
// destroyed scheduler's jobs never complete.
TEST(CpuTest, DestroyedWithJobsInFlightWhileTheEngineSteps) {
  Engine engine;
  auto cpu = std::make_unique<CpuScheduler>(&engine, 2);
  CpuScheduler other(&engine, 1);
  TimePoint never;
  TimePoint done;
  engine.Spawn(Burn(engine, *cpu, 0, Duration::Millis(10), &never));
  engine.Spawn(Burn(engine, *cpu, 1, Duration::Millis(20), &never));
  engine.Spawn(Burn(engine, *cpu, 1, Duration::Millis(30), &never));
  engine.Spawn(Burn(engine, other, 0, Duration::Millis(40), &done));
  int ran = 0;
  engine.Schedule(Duration::Millis(5), [&] {
    // Three completion timers and the closure at 50 ms.
    EXPECT_EQ(engine.pending_events(), 4u);
    cpu.reset();
    EXPECT_EQ(engine.pending_events(), 2u);
    ++ran;
  });
  engine.Schedule(Duration::Millis(50), [&ran] { ++ran; });
  engine.Run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(never, TimePoint());
  EXPECT_NEAR(done.ms(), 40.0, 1e-6);
  EXPECT_EQ(engine.now().ms(), 50.0);
  EXPECT_EQ(engine.pending_events(), 0u);
}

// A job that is the only one its core's completion finishes wakes in that
// completion's dispatch, once the scheduler's callback has returned, so it
// may destroy the scheduler whose timer fired; the other core's timer goes
// with it.
TEST(CpuTest, JobWokenByItsCompletionMayDestroyTheScheduler) {
  Engine engine;
  auto cpu = std::make_unique<CpuScheduler>(&engine, 2);
  TimePoint never;
  bool destroyed = false;
  engine.Spawn(Burn(engine, *cpu, 1, Duration::Millis(20), &never));
  engine.Spawn([](std::unique_ptr<CpuScheduler>* owner, bool* done) -> Co<void> {
    co_await (*owner)->Run(0, Duration::Millis(10));
    owner->reset();
    *done = true;
  }(&cpu, &destroyed));
  EXPECT_EQ(engine.pending_events(), 2u);
  EXPECT_TRUE(engine.Step());  // core 0's completion, then the wake-up
  EXPECT_TRUE(destroyed);
  EXPECT_EQ(engine.processed_events(), 2u);
  EXPECT_EQ(engine.now().ms(), 10.0);
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_FALSE(engine.Step());
  EXPECT_EQ(never, TimePoint());
}

TEST(CorePlacerTest, RoundRobinGuestCores) {
  CorePlacer placer(4, 1);
  EXPECT_EQ(placer.NextGuestCore(), 1);
  EXPECT_EQ(placer.NextGuestCore(), 2);
  EXPECT_EQ(placer.NextGuestCore(), 3);
  EXPECT_EQ(placer.NextGuestCore(), 1);
  EXPECT_EQ(placer.num_guest_cores(), 3);
  EXPECT_EQ(placer.num_dom0_cores(), 1);
  EXPECT_EQ(placer.NextDom0Core(), 0);
  EXPECT_EQ(placer.NextDom0Core(), 0);
}

TEST(CorePlacerTest, MultipleDom0Cores) {
  CorePlacer placer(64, 4);
  EXPECT_EQ(placer.NextDom0Core(), 0);
  EXPECT_EQ(placer.NextDom0Core(), 1);
  EXPECT_EQ(placer.NextDom0Core(), 2);
  EXPECT_EQ(placer.NextDom0Core(), 3);
  EXPECT_EQ(placer.NextDom0Core(), 0);
  EXPECT_EQ(placer.num_guest_cores(), 60);
}

// --- Cancelled events ---------------------------------------------------------

TEST(EngineTest, CancelTracksPendingCount) {
  Engine engine;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(engine.Schedule(Duration::Millis(i + 1), [] {}));
  }
  EXPECT_EQ(engine.cancelled_pending(), 0u);
  handles[3].Cancel();
  handles[7].Cancel();
  handles[7].Cancel();  // double cancel counts once
  EXPECT_EQ(engine.cancelled_pending(), 2u);
  // Entries due at the current instant count too, live or cancelled.
  EventHandle now_a = engine.Schedule(Duration(), [] {});
  engine.Schedule(Duration(), [] {});
  EXPECT_EQ(engine.pending_events(), 12u);
  now_a.Cancel();
  EXPECT_EQ(engine.cancelled_pending(), 3u);
  EXPECT_TRUE(engine.Step());  // skips now_a, runs the other
  EXPECT_EQ(engine.pending_events(), 10u);
  EXPECT_EQ(engine.cancelled_pending(), 2u);
  engine.Run();
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.cancelled_pending(), 0u);
}

TEST(EngineTest, CancelledTailEventLeavesClockAtLastLiveEvent) {
  Engine engine;
  engine.Schedule(Duration::Millis(1), [] {});
  EventHandle tail = engine.Schedule(Duration::Millis(5), [] {});
  tail.Cancel();
  engine.Run();
  // A dead entry is popped without being run, so it neither advances the
  // clock nor counts as processed.
  EXPECT_EQ(engine.now().ms(), 1.0);
  EXPECT_EQ(engine.processed_events(), 1u);
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.cancelled_pending(), 0u);
}

TEST(EngineTest, RunUntilIncludesEventsAtTheHorizon) {
  Engine engine;
  std::vector<int> order;
  engine.Schedule(Duration::Millis(1), [&] { order.push_back(1); });
  engine.Schedule(Duration::Millis(2), [&] { order.push_back(2); });
  engine.Schedule(Duration::Millis(3), [&] { order.push_back(3); });
  engine.RunUntil(TimePoint() + Duration::Millis(2));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(engine.now().ms(), 2.0);
  EXPECT_EQ(engine.pending_events(), 1u);
  // An event scheduled at the current instant still runs before the later
  // one, and a horizon in the past is a no-op.
  engine.Schedule(Duration(), [&] { order.push_back(0); });
  engine.RunUntil(TimePoint() + Duration::Millis(1));
  EXPECT_EQ(engine.now().ms(), 2.0);
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0, 3}));
  EXPECT_EQ(engine.now().ms(), 3.0);
}

TEST(EngineTest, StepSkipsCancelledAndReportsEmptyQueue) {
  Engine engine;
  EXPECT_FALSE(engine.Step());
  int ran = 0;
  EventHandle head = engine.Schedule(Duration::Millis(1), [&ran] { ran += 1; });
  engine.Schedule(Duration::Millis(2), [&ran] { ran += 10; });
  head.Cancel();
  EXPECT_TRUE(engine.Step());
  EXPECT_EQ(ran, 10);
  EXPECT_EQ(engine.now().ms(), 2.0);
  EXPECT_EQ(engine.processed_events(), 1u);
  EXPECT_FALSE(engine.Step());
  EXPECT_FALSE(head.valid());  // the popped entry released its state
}

// --- Slab slots and generation-checked handles -------------------------------

TEST(EngineTest, StaleHandleDoesNotCancelReusedSlot) {
  Engine engine;
  int ran = 0;
  EventHandle a = engine.Schedule(Duration::Millis(1), [&ran] { ran += 1; });
  engine.Run();
  ASSERT_EQ(ran, 1);
  EXPECT_FALSE(a.valid());
  // The slab holds one free slot, so B takes A's.
  EventHandle b = engine.Schedule(Duration::Millis(1), [&ran] { ran += 10; });
  a.Cancel();
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(engine.cancelled_pending(), 0u);
  engine.Run();
  EXPECT_EQ(ran, 11);
  EXPECT_FALSE(b.valid());
}

TEST(EngineTest, RunningEventsOwnHandleIsInert) {
  Engine engine;
  int ran = 0;
  EventHandle a;
  a = engine.Schedule(Duration::Millis(1), [&] {
    // A's slot is released before A runs: cancelling A is a no-op, and the
    // event scheduled next reuses the slot without inheriting the cancel.
    EXPECT_FALSE(a.valid());
    a.Cancel();
    engine.Schedule(Duration::Millis(1), [&ran] { ran += 10; });
    a.Cancel();
    ran += 1;
  });
  engine.Run();
  EXPECT_EQ(ran, 11);
  EXPECT_EQ(engine.cancelled_pending(), 0u);
  EXPECT_EQ(engine.processed_events(), 2u);
}

TEST(EngineTest, TimerIsOnePendingEventReKeyedInPlace) {
  Engine engine;
  std::vector<int> order;
  Timer timer(&engine, [&order] {
    order.push_back(0);
    return std::coroutine_handle<>();
  });
  engine.Schedule(Duration::Millis(2), [&order] { order.push_back(1); });
  timer.Arm(Duration::Millis(2));  // ties with the closure, on a later seq
  timer.Arm(Duration::Millis(1));
  timer.Arm(Duration::Millis(3));
  EXPECT_TRUE(timer.armed());
  EXPECT_EQ(engine.pending_events(), 2u);
  EXPECT_EQ(engine.cancelled_pending(), 0u);
  engine.RunUntil(TimePoint() + Duration::Millis(2));
  EXPECT_EQ(order, (std::vector<int>{1}));
  timer.Disarm();
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(engine.pending_events(), 0u);
  timer.Arm(Duration::Millis(1));
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(engine.now().ms(), 3.0);
  EXPECT_EQ(engine.processed_events(), 2u);
}

// Parks a coroutine and hands its handle out, so the differential test can
// schedule it as a plain coroutine wake-up.
struct Park {
  std::coroutine_handle<>* out;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) noexcept { *out = h; }
  void await_resume() const noexcept {}
};

Co<void> RecordWhenResumed(int id, std::vector<int>* fired, std::coroutine_handle<>* out) {
  co_await Park{out};
  fired->push_back(id);
}

// Parks, then hands its id to *on_wake once resumed.
Co<void> WakeAs(int id, std::coroutine_handle<>* out, const std::function<void(int)>* on_wake) {
  co_await Park{out};
  (*on_wake)(id);
}

// Reference for the differential test: the engine's semantics as a sorted
// map keyed by (when, seq), one seq per schedule, where a cancelled entry
// stays until it reaches the front.
struct ReferenceQueue {
  using Key = std::pair<int64_t, uint64_t>;
  struct Item {
    int id;
    bool cancelled = false;
  };
  std::map<Key, Item> items;
  std::map<int, Key> queued;  // id -> key while its entry is in `items`
  uint64_t next_seq = 0;
  int64_t now = 0;
  uint64_t processed = 0;

  void Schedule(int64_t when, int id) {
    Key key{when, next_seq++};
    items.emplace(key, Item{id});
    queued[id] = key;
  }
  void Cancel(int id) {
    auto it = queued.find(id);
    if (it != queued.end()) {
      items.at(it->second).cancelled = true;
    }
  }
  // Pops the next live entry due at or before `horizon`; -1 if none.
  int Pop(int64_t horizon) {
    while (!items.empty()) {
      auto it = items.begin();
      if (!it->second.cancelled && it->first.first > horizon) {
        return -1;
      }
      int id = it->second.id;
      bool cancelled = it->second.cancelled;
      int64_t when = it->first.first;
      queued.erase(id);
      items.erase(it);
      if (!cancelled) {
        now = when;
        ++processed;
        return id;
      }
    }
    return -1;
  }
  size_t live() const {
    size_t n = 0;
    for (const auto& [key, item] : items) {
      n += item.cancelled ? 0 : 1;
    }
    return n;
  }
  // The next live entry's id; -1 if none.
  int Peek() const {
    for (const auto& [key, item] : items) {
      if (!item.cancelled) {
        return item.id;
      }
    }
    return -1;
  }
};

// Random mixes of closure and coroutine schedules (some at now(), some from
// inside a running handler), cancels of live, fired and already-cancelled
// events, Step and RunUntil, checked op by op against ReferenceQueue.
// Same-instant bursts, mostly cancelled again, are issued both from outside
// and from inside running handlers, so dead entries pile up in the engine's
// lane of events due now as well as in its heap.
TEST(EngineTest, MatchesReferenceQueueUnderRandomCancels) {
  constexpr int64_t kForever = std::numeric_limits<int64_t>::max();
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    lv::Rng rng(seed);
    std::vector<Co<void>> frames;
    Engine engine;
    ReferenceQueue ref;
    std::vector<int> fired;
    std::vector<int> ref_fired;
    std::vector<EventHandle> handles;
    // child[id] >= 0 marks a closure that schedules event child[id] after
    // child_delay[id] when it runs.
    std::vector<int> child;
    std::vector<int64_t> child_delay;
    // burst[id] lists the zero-delay events closure `id` schedules when it
    // runs, each with whether the closure then cancels it.
    std::vector<std::vector<std::pair<int, bool>>> burst;

    auto new_id = [&] {
      handles.emplace_back();
      child.push_back(-1);
      child_delay.push_back(0);
      burst.emplace_back();
      return static_cast<int>(handles.size()) - 1;
    };
    auto delay = [&] { return rng.Chance(0.25) ? int64_t{0} : rng.Uniform(1, 40); };
    auto schedule_closure = [&](int64_t d) {
      int id = new_id();
      if (rng.Chance(0.2)) {
        int kid = new_id();
        child[id] = kid;
        child_delay[id] = delay();
      } else if (rng.Chance(0.03)) {
        for (int i = 0; i < 100; ++i) {
          int kid = new_id();
          burst[id].emplace_back(kid, rng.Chance(0.9));
        }
      }
      handles[id] = engine.Schedule(Duration::Nanos(d), [&, id] {
        fired.push_back(id);
        if (int kid = child[id]; kid >= 0) {
          handles[kid] = engine.Schedule(Duration::Nanos(child_delay[id]),
                                         [&fired, kid] { fired.push_back(kid); });
        }
        for (auto [kid, cancel] : burst[id]) {
          handles[kid] = engine.Schedule(Duration(), [&fired, kid] { fired.push_back(kid); });
        }
        for (auto [kid, cancel] : burst[id]) {
          if (cancel) {
            handles[kid].Cancel();
          }
        }
      });
      ref.Schedule(ref.now + d, id);
    };
    auto ref_fire = [&](int id) {
      ref_fired.push_back(id);
      if (child[id] >= 0) {
        ref.Schedule(ref.now + child_delay[id], child[id]);
      }
      for (auto [kid, cancel] : burst[id]) {
        ref.Schedule(ref.now, kid);
      }
      for (auto [kid, cancel] : burst[id]) {
        if (cancel) {
          ref.Cancel(kid);
        }
      }
    };

    for (int op = 0; op < 400; ++op) {
      int64_t roll = rng.Uniform(0, 99);
      if (roll < 30) {
        schedule_closure(delay());
      } else if (roll < 50) {
        int id = new_id();
        int64_t d = delay();
        std::coroutine_handle<> parked;
        frames.push_back(RecordWhenResumed(id, &fired, &parked));
        frames.back().Start();
        handles[id] = engine.Schedule(Duration::Nanos(d), parked);
        ref.Schedule(ref.now + d, id);
      } else if (roll < 53) {
        // A deep burst, mostly cancelled again.
        int first = static_cast<int>(handles.size());
        for (int i = 0; i < 80; ++i) {
          schedule_closure(rng.Uniform(0, 200));
        }
        for (int id = first; id < static_cast<int>(handles.size()); ++id) {
          if (rng.Chance(0.7)) {
            handles[id].Cancel();
            ref.Cancel(id);
          }
        }
      } else if (roll < 56) {
        // A same-instant burst from outside any handler, mostly cancelled.
        int first = static_cast<int>(handles.size());
        for (int i = 0; i < 100; ++i) {
          schedule_closure(0);
        }
        for (int id = first; id < static_cast<int>(handles.size()); ++id) {
          if (rng.Chance(0.9)) {
            handles[id].Cancel();
            ref.Cancel(id);
          }
        }
      } else if (roll < 75 && !handles.empty()) {
        int id = static_cast<int>(rng.Uniform(0, static_cast<int64_t>(handles.size()) - 1));
        handles[id].Cancel();
        ref.Cancel(id);
      } else if (roll < 90) {
        int id = ref.Pop(kForever);
        if (id >= 0) {
          ref_fire(id);
        }
        ASSERT_EQ(engine.Step(), id >= 0) << "seed " << seed << " op " << op;
      } else {
        int64_t horizon = ref.now + rng.Uniform(0, 30);
        for (int id; (id = ref.Pop(horizon)) >= 0;) {
          ref_fire(id);
        }
        ref.now = std::max(ref.now, horizon);
        engine.RunUntil(TimePoint::FromNanos(horizon));
      }

      ASSERT_EQ(fired, ref_fired) << "seed " << seed << " op " << op;
      ASSERT_EQ(engine.now().ns(), ref.now) << "seed " << seed << " op " << op;
      ASSERT_EQ(engine.processed_events(), ref.processed) << "seed " << seed << " op " << op;
      ASSERT_EQ(engine.pending_events() - engine.cancelled_pending(), ref.live())
          << "seed " << seed << " op " << op;
      // A handle is valid exactly while its entry, live or cancelled, is
      // queued.
      if (!handles.empty()) {
        int id = static_cast<int>(rng.Uniform(0, static_cast<int64_t>(handles.size()) - 1));
        ASSERT_EQ(handles[id].valid(), ref.queued.contains(id))
            << "seed " << seed << " id " << id;
      }
    }
    for (int id; (id = ref.Pop(kForever)) >= 0;) {
      ref_fire(id);
    }
    engine.Run();
    ASSERT_EQ(fired, ref_fired) << "seed " << seed;
    ASSERT_EQ(engine.now().ns(), ref.now) << "seed " << seed;
    ASSERT_EQ(engine.processed_events(), ref.processed) << "seed " << seed;
    ASSERT_EQ(engine.pending_events(), 0u) << "seed " << seed;
    ASSERT_EQ(engine.cancelled_pending(), 0u) << "seed " << seed;
  }
}

// Timers checked op by op against ReferenceQueue, where arming is a Cancel
// of the timer's pending entry (if any) then a Schedule, and disarming is a
// Cancel. Timers are armed, re-armed and disarmed from outside, from inside
// their own and each other's callbacks and from inside closures. Delays are
// short, so firings tie at one `when` with heap entries, lane entries and
// each other, and RunUntil horizons fall between them; cancelled bursts
// pile dead entries up in the queue while timers are armed. Half the timer firings end by
// returning a parked coroutine, whose wake-up the reference schedules as
// Schedule(Duration(), h) after the callback's own actions. Step runs that
// wake-up with the firing when it is the next live event, so Step pops it
// too in the reference then; otherwise a live lane entry, heap entry or
// timer due now is ahead of it, and each case occurs.
TEST(EngineTest, TimersMatchReferenceQueue) {
  constexpr int64_t kForever = std::numeric_limits<int64_t>::max();
  constexpr int kTimers = 12;
  // What a timer's wake-up found when its callback returned, over all seeds.
  int64_t woken_at_once = 0;
  int64_t behind_lane = 0;
  int64_t behind_heap = 0;
  int64_t behind_timer = 0;
  // What firing an event does: arm `timer` at `delay` as event `id`, disarm
  // `timer` (delay < 0), or schedule closure `id` at `delay` (timer < 0).
  struct Action {
    int timer;
    int64_t delay;
    int id;
  };
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    lv::Rng rng(seed);
    std::vector<Co<void>> frames;  // the parked coroutines timers wake
    Engine engine;
    ReferenceQueue ref;
    std::vector<int> fired;
    std::vector<int> ref_fired;
    // By event id: the closure's handle, the timer it fires (-1 for a
    // closure or a wake-up), its actions, drawn when the reference fires it
    // (the reference always runs ahead of the engine), the wake-up a timer
    // firing ends with (-1 for none), a wake-up's parked coroutine, and
    // whether it was queued at the instant it was scheduled (the engine's
    // lane).
    std::vector<EventHandle> handles;
    std::vector<int> timer_of;
    std::vector<std::vector<Action>> plan;
    std::vector<int> wake_of;
    std::vector<std::coroutine_handle<>> parked;
    std::vector<bool> due_at_once;
    // By timer: the id of its pending firing, or -1; one copy per side.
    std::vector<int> armed(kTimers, -1);
    std::vector<int> ref_armed(kTimers, -1);

    auto new_id = [&](int timer) {
      handles.emplace_back();
      timer_of.push_back(timer);
      plan.emplace_back();
      wake_of.push_back(-1);
      parked.emplace_back();
      due_at_once.push_back(false);
      return static_cast<int>(plan.size()) - 1;
    };
    std::vector<Timer> timers(kTimers);
    std::function<void(int)> carry_out;
    auto schedule = [&](int64_t delay, int id) {
      handles[id] = engine.Schedule(Duration::Nanos(delay), [&, id] {
        fired.push_back(id);
        carry_out(id);
      });
    };
    carry_out = [&](int id) {
      for (const Action& a : plan[id]) {
        if (a.timer < 0) {
          schedule(a.delay, a.id);
        } else if (a.delay < 0) {
          timers[a.timer].Disarm();
          armed[a.timer] = -1;
        } else {
          timers[a.timer].Arm(Duration::Nanos(a.delay));
          armed[a.timer] = a.id;
        }
      }
    };
    const std::function<void(int)> woken = [&](int id) {
      fired.push_back(id);
      carry_out(id);
    };
    for (int k = 0; k < kTimers; ++k) {
      timers[k] = Timer(&engine, [&, k] {
        int id = std::exchange(armed[k], -1);
        fired.push_back(id);
        if (id < 0) {
          return std::coroutine_handle<>();
        }
        carry_out(id);
        int wake = wake_of[id];
        return wake >= 0 ? parked[wake] : std::coroutine_handle<>();
      });
    }

    auto ref_apply = [&](const Action& a) {
      if (a.timer < 0) {
        ref.Schedule(ref.now + a.delay, a.id);
        due_at_once[a.id] = a.delay == 0;
        return;
      }
      if (ref_armed[a.timer] >= 0) {
        ref.Cancel(ref_armed[a.timer]);
      }
      ref_armed[a.timer] = -1;
      if (a.delay >= 0) {
        ref.Schedule(ref.now + a.delay, a.id);
        ref_armed[a.timer] = a.id;
      }
    };
    auto random_timer = [&] { return static_cast<int>(rng.Uniform(0, kTimers - 1)); };
    auto draw_timer_action = [&](int timer) {
      if (rng.Chance(0.25)) {
        return Action{timer, -1, -1};
      }
      return Action{timer, rng.Uniform(1, 12), new_id(timer)};
    };
    auto draw_closure = [&] {
      return Action{-1, rng.Chance(0.4) ? int64_t{0} : rng.Uniform(1, 12), new_id(-1)};
    };
    auto ref_fire = [&](int id) {
      ref_fired.push_back(id);
      int own = timer_of[id];
      if (own >= 0) {
        ref_armed[own] = -1;
      }
      std::vector<Action> actions;
      for (int64_t n = rng.Chance(0.5) ? 0 : rng.Uniform(1, 2); n > 0; --n) {
        if (rng.Chance(0.5)) {
          // Its own timer half the time, when a timer fired it.
          actions.push_back(draw_timer_action(own >= 0 && rng.Chance(0.5) ? own : random_timer()));
        } else {
          actions.push_back(draw_closure());
        }
        ref_apply(actions.back());
      }
      plan[id] = std::move(actions);
      if (own < 0 || rng.Chance(0.5)) {
        return;
      }
      // The callback returns a parked coroutine, woken after its actions.
      int wake = new_id(-1);
      frames.push_back(WakeAs(wake, &parked[wake], &woken));
      frames.back().Start();
      wake_of[id] = wake;
      ref.Schedule(ref.now, wake);
      due_at_once[wake] = true;
      int ahead = ref.Peek();
      if (ahead == wake) {
        ++woken_at_once;
      } else if (timer_of[ahead] >= 0) {
        ++behind_timer;
      } else {
        ++(due_at_once[ahead] ? behind_lane : behind_heap);
      }
    };

    for (int op = 0; op < 400; ++op) {
      int64_t roll = rng.Uniform(0, 99);
      std::vector<Action> outside;
      if (roll < 25) {
        outside.push_back(draw_timer_action(random_timer()));
      } else if (roll < 43) {
        outside.push_back(draw_closure());
      } else if (roll < 47) {
        // A deep burst, mostly cancelled again below.
        for (int i = 0; i < 80; ++i) {
          outside.push_back(draw_closure());
        }
      } else if (roll < 53 && !handles.empty()) {
        int id = static_cast<int>(rng.Uniform(0, static_cast<int64_t>(handles.size()) - 1));
        if (timer_of[id] < 0) {
          handles[id].Cancel();
          ref.Cancel(id);
        }
      } else if (roll < 78) {
        int id = ref.Pop(kForever);
        if (id >= 0) {
          ref_fire(id);
          // A wake-up with nothing live ahead of it runs in the same Step.
          if (int wake = wake_of[id]; wake >= 0 && ref.Peek() == wake) {
            ref_fire(ref.Pop(kForever));
          }
        }
        ASSERT_EQ(engine.Step(), id >= 0) << "seed " << seed << " op " << op;
      } else {
        int64_t horizon = ref.now + rng.Uniform(0, 15);
        for (int id; (id = ref.Pop(horizon)) >= 0;) {
          ref_fire(id);
        }
        ref.now = std::max(ref.now, horizon);
        engine.RunUntil(TimePoint::FromNanos(horizon));
      }
      if (!outside.empty()) {
        // Carried out from outside any handler, through a stand-in event
        // that never fires.
        int id = new_id(-1);
        for (const Action& a : outside) {
          ref_apply(a);
        }
        plan[id] = std::move(outside);
        carry_out(id);
        if (plan[id].size() > 1) {
          for (const Action& a : plan[id]) {
            if (rng.Chance(0.7)) {
              handles[a.id].Cancel();
              ref.Cancel(a.id);
            }
          }
        }
      }

      ASSERT_EQ(fired, ref_fired) << "seed " << seed << " op " << op;
      ASSERT_EQ(engine.now().ns(), ref.now) << "seed " << seed << " op " << op;
      ASSERT_EQ(engine.processed_events(), ref.processed) << "seed " << seed << " op " << op;
      ASSERT_EQ(engine.pending_events() - engine.cancelled_pending(), ref.live())
          << "seed " << seed << " op " << op;
      ASSERT_EQ(armed, ref_armed) << "seed " << seed << " op " << op;
      for (int k = 0; k < kTimers; ++k) {
        ASSERT_EQ(timers[k].armed(), armed[k] >= 0) << "seed " << seed << " op " << op;
      }
    }
    for (int id; (id = ref.Pop(kForever)) >= 0;) {
      ref_fire(id);
    }
    engine.Run();
    ASSERT_EQ(fired, ref_fired) << "seed " << seed;
    ASSERT_EQ(engine.now().ns(), ref.now) << "seed " << seed;
    ASSERT_EQ(engine.processed_events(), ref.processed) << "seed " << seed;
    ASSERT_EQ(engine.pending_events(), 0u) << "seed " << seed;
    ASSERT_EQ(armed, ref_armed) << "seed " << seed;
    for (const Co<void>& frame : frames) {
      ASSERT_TRUE(frame.done()) << "seed " << seed;
    }
  }
  EXPECT_GT(woken_at_once, 0);
  EXPECT_GT(behind_lane, 0);
  EXPECT_GT(behind_heap, 0);
  EXPECT_GT(behind_timer, 0);
}

}  // namespace
}  // namespace sim
