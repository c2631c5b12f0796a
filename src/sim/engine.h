// Discrete-event simulation engine: a simulated clock plus an ordered event
// queue. All LightVM components run on top of one Engine; time only advances
// when the engine processes events, so runs are exactly reproducible.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/sim/task.h"

namespace sim {

using lv::Duration;
using lv::TimePoint;

class Engine;

// Handle to a scheduled event; allows cancellation. It names the event's slab
// slot and the slot's generation at scheduling time. The generation moves on
// when the event is dispatched or its cancelled entry is dropped, so a
// handle to a fired or dropped event is inert (Cancel() is a no-op, valid()
// is false) even after its slot is reused. A running event's own handle is
// already inert.
//
// Lifetime: a handle must not outlive its engine. Cancel() and valid() read
// the engine's slab, so every owner (guest background sleeps, Channel and
// SharedFuture awaiters) is torn down before the engine it scheduled on.
class EventHandle {
 public:
  EventHandle() = default;
  // Defined after Engine. Marks the entry cancelled; it stays queued until
  // it reaches the front.
  inline void Cancel();
  inline bool valid() const;

 private:
  friend class Engine;
  EventHandle(Engine* engine, uint32_t slot, uint64_t generation)
      : engine_(engine), slot_(slot), generation_(generation) {}
  Engine* engine_ = nullptr;
  uint32_t slot_ = 0;
  uint64_t generation_ = 0;
};

// A re-armable event owned by its user and held outside the event queue, in
// the engine's own small min-heap: at most one pending firing, re-keyed in
// place by Arm. Arm takes the next seq, exactly as cancelling an event and
// scheduling a new one would, and Disarm takes none, so timers and queued
// events dispatch in the one (when, seq) order. The callback runs with the
// timer disarmed; it may re-arm the timer but must not destroy it. It
// returns a coroutine to wake, or null: the engine wakes it once the
// callback has returned, exactly as Schedule(Duration(), h) at that point
// would, so the woken coroutine may destroy the timer's owner. The
// destructor disarms. Like an EventHandle, a timer must not outlive its
// engine. The engine holds its address while armed, so it moves only while
// disarmed: a container of timers is sized before any is armed.
class Timer {
 public:
  using Callback = std::function<std::coroutine_handle<>()>;

  Timer() = default;
  Timer(Engine* engine, Callback fn) : engine_(engine), fn_(std::move(fn)) {}
  ~Timer() { Disarm(); }
  Timer(Timer&& other) noexcept;
  Timer& operator=(Timer&& other) noexcept;
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  // Fires at now() + delay, replacing any pending firing. The delay must be
  // at least 1 ns.
  inline void Arm(Duration delay);
  // Drops the pending firing, if any.
  inline void Disarm();
  bool armed() const { return index_ != kDisarmed; }

 private:
  friend class Engine;
  static constexpr uint32_t kDisarmed = UINT32_MAX;
  Engine* engine_ = nullptr;
  Callback fn_;
  uint32_t index_ = kDisarmed;  // position in the engine's timer heap
};

class Engine {
 public:
  explicit Engine(uint64_t seed = 1);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  TimePoint now() const { return now_; }
  lv::Rng& rng() { return rng_; }

  EventHandle Schedule(Duration delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }
  EventHandle ScheduleAt(TimePoint when, std::function<void()> fn);
  // Coroutine wake-ups: the event resumes `h`, with no closure around it.
  EventHandle Schedule(Duration delay, std::coroutine_handle<> h) {
    return ScheduleAt(now_ + delay, h);
  }
  EventHandle ScheduleAt(TimePoint when, std::coroutine_handle<> h);

  // Starts a detached coroutine task. It runs synchronously until its first
  // suspension point; its frame is reclaimed automatically on completion, or
  // by ~Engine if it is still parked then.
  void Spawn(Co<void> task);

  // Awaitable that suspends the current coroutine for `d` of simulated time.
  // Sleep(Duration()) yields through the event queue (fair re-entry).
  struct SleepAwaiter {
    Engine* engine;
    Duration d;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { engine->Schedule(d, h); }
    void await_resume() const noexcept {}
  };
  SleepAwaiter Sleep(Duration d) { return SleepAwaiter{this, d}; }

  // Processes every pending event (including ones scheduled along the way).
  void Run();
  // Processes events up to and including time t, then advances the clock to t.
  void RunUntil(TimePoint t);
  void RunFor(Duration d) { RunUntil(now_ + d); }
  // Processes the next event, and with a timer's firing the wake-up its
  // callback returns when that is the next event too. Returns false if the
  // queue was empty.
  bool Step();

  // Queue entries (heap and lane), cancelled ones included, plus armed
  // timers.
  size_t pending_events() const { return queued() + timers_.size(); }
  uint64_t processed_events() const { return processed_; }

  // Cancelled entries still sitting in the queue. EventHandle::Cancel only
  // marks; the entry stays until it reaches the front and is popped
  // (timers are never dead and do not count).
  size_t cancelled_pending() const { return cancelled_pending_; }

 private:
  friend class EventHandle;
  friend class Timer;
  // One scheduled event's callable. Slots are recycled through `free_`;
  // releasing one bumps its generation, which retires every handle to it.
  struct Slot {
    std::function<void()> fn;      // empty for a coroutine wake-up
    std::coroutine_handle<> coro;  // null for a closure
    uint64_t generation = 0;
    bool cancelled = false;
  };
  // Heap entry: plain data, so push and pop only move 24 bytes.
  struct Entry {
    TimePoint when;
    uint64_t seq;
    uint32_t slot;
  };
  // Timer heap entry: the key sits beside the timer, so sifting compares
  // contiguous data; the timer records its position.
  struct TimerEntry {
    TimePoint when;
    uint64_t seq;
    Timer* timer;
  };
  struct Later {
    template <class A, class B>
    bool operator()(const A& a, const B& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };
  // Where the next event by (when, seq) sits.
  enum class Source : uint8_t { kNone, kHeap, kLane, kTimer };

  size_t queued() const { return heap_.size() + lane_.size() - lane_head_; }
  // Takes a free slot and queues its entry at `when` with the next seq: in
  // the lane when `when` is now, else in the heap.
  uint32_t Push(TimePoint when);
  // Retires the slot's handles and returns it to the free list.
  void Release(uint32_t slot);
  // Releases a cancelled slot, destroying its closure once the slot is
  // consistent again.
  void Drop(uint32_t slot);
  // The lowest by (when, seq) of the heap's top, the lane's front and the
  // timer heap's top.
  Source Next() const;
  TimePoint When(Source s) const;
  // Removes and returns the front entry of the heap or the lane.
  Entry Pop(Source s);
  // Pops cancelled entries due at or before `until` off the front and
  // returns where the next event sits: a live one, unless it is due later.
  Source SkipCancelled(TimePoint until = TimePoint::Max());
  // Removes the next event and runs it. A queued callable leaves its slot,
  // and the slot is released, before it runs, and a timer is disarmed before
  // its callback runs, so the handler may schedule and arm freely.
  void Dispatch(Source s);
  // Wakes the coroutine a timer callback returned: within this dispatch
  // when that wake-up is the next event anyway, else through the lane.
  void WakeAfterTimer(std::coroutine_handle<> h);

  // Timer heap: (re)keys `timer` at `when` with the next seq, or removes it.
  void ArmTimer(Timer& timer, TimePoint when);
  void DisarmTimer(Timer& timer);
  // Moves the entry at `i` up or down to its place.
  void SiftTimer(size_t i);

  TimePoint now_;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  size_t cancelled_pending_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
  // Min-heap on (when, seq) via std::push_heap/pop_heap under Later, for
  // entries due after the instant they were scheduled at.
  std::vector<Entry> heap_;
  // FIFO lane for entries due at the instant they were scheduled at (every
  // wake-up), popped at lane_head_ and cleared whenever it drains. Time
  // only advances once the lane is empty, so its entries share one `when`,
  // now(), and ascend in seq; a heap entry due now was pushed at an earlier
  // clock and so holds a lower seq than all of them. Taking the lower of
  // the two fronts by (when, seq) is therefore exactly the order a single
  // heap would pop.
  std::vector<Entry> lane_;
  size_t lane_head_ = 0;
  // Min-heap on (when, seq) of the armed timers. A timer is armed at least
  // 1 ns ahead, so one due now was armed at an earlier clock and holds a
  // lower seq than every lane entry, as a heap entry due now does; taking
  // the lowest of the three fronts by (when, seq) is still the single-heap
  // order.
  std::vector<TimerEntry> timers_;
  lv::Rng rng_;
  // Sentinel of the live detached frames' list, oldest first (see
  // internal::DetachedLink): a frame still parked on the queue when the
  // engine dies is unreachable any other way, so ~Engine destroys the
  // survivors (newest first).
  internal::DetachedLink detached_;
};

inline void Timer::Arm(Duration delay) { engine_->ArmTimer(*this, engine_->now() + delay); }

inline void Timer::Disarm() {
  if (armed()) {
    engine_->DisarmTimer(*this);
  }
}

inline bool EventHandle::valid() const {
  return engine_ != nullptr && engine_->slots_[slot_].generation == generation_;
}

inline void EventHandle::Cancel() {
  if (!valid()) {
    return;
  }
  Engine::Slot& slot = engine_->slots_[slot_];
  if (!slot.cancelled) {
    slot.cancelled = true;
    ++engine_->cancelled_pending_;
  }
}

}  // namespace sim
