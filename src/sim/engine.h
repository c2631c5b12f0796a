// Discrete-event simulation engine: a simulated clock plus an ordered event
// queue. All LightVM components run on top of one Engine; time only advances
// when the engine processes events, so runs are exactly reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/sim/task.h"

namespace sim {

using lv::Duration;
using lv::TimePoint;

class Engine;

// Handle to a scheduled event; allows cancellation (used by the CPU
// scheduler to re-plan core completion events).
class EventHandle {
 public:
  EventHandle() = default;
  // Defined after Engine: a first-time Cancel tells the owning engine so it
  // can compact the queue once dead entries dominate.
  inline void Cancel();
  bool valid() const { return !state_.expired(); }

 private:
  friend class Engine;
  struct State {
    bool cancelled = false;
    // Owning engine while the event sits in the queue; cleared when the
    // event is popped (cancelling a running event is a no-op for the
    // dead-entry bookkeeping).
    Engine* owner = nullptr;
  };
  explicit EventHandle(std::weak_ptr<State> s) : state_(std::move(s)) {}
  std::weak_ptr<State> state_;
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

  // Starts a detached coroutine task. It runs synchronously until its first
  // suspension point; its frame is reclaimed automatically on completion.
  void Spawn(Co<void> task);

  // Awaitable that suspends the current coroutine for `d` of simulated time.
  // Sleep(Duration()) yields through the event queue (fair re-entry).
  struct SleepAwaiter {
    Engine* engine;
    Duration d;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      engine->Schedule(d, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };
  SleepAwaiter Sleep(Duration d) { return SleepAwaiter{this, d}; }
  SleepAwaiter Yield() { return SleepAwaiter{this, Duration()}; }

  // Processes every pending event (including ones scheduled along the way).
  void Run();
  // Processes events up to and including time t, then advances the clock to t.
  void RunUntil(TimePoint t);
  void RunFor(Duration d) { RunUntil(now_ + d); }
  // Processes a single event. Returns false if the queue was empty.
  bool Step();

  size_t pending_events() const;
  uint64_t processed_events() const { return processed_; }

  // Cancelled entries still sitting in the queue. EventHandle::Cancel only
  // marks; the entry stays until popped or until lazy compaction rebuilds
  // the heap (triggered when dead entries exceed half the queue).
  size_t cancelled_pending() const { return cancelled_pending_; }
  uint64_t compactions() const { return compactions_; }

 private:
  friend class EventHandle;
  struct Event {
    TimePoint when;
    uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<EventHandle::State> state;
  };
  struct Later {
    bool operator()(const std::unique_ptr<Event>& a, const std::unique_ptr<Event>& b) const {
      if (a->when != b->when) {
        return a->when > b->when;
      }
      return a->seq > b->seq;
    }
  };

  // Pops the next non-cancelled event, or nullptr.
  std::unique_ptr<Event> PopNext();

  // First-time Cancel of a queued event; compacts when dead entries exceed
  // half the queue (and the queue is big enough for the rebuild to pay off).
  void NoteCancelled();
  // Rebuilds the heap without the cancelled entries.
  void Compact();

  // Deregisters a detached frame that reached its final suspend (see
  // PromiseBase::reap).
  static void ReapDetached(void* ctx, uint64_t id);

  TimePoint now_;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  size_t cancelled_pending_ = 0;
  uint64_t compactions_ = 0;
  std::priority_queue<std::unique_ptr<Event>, std::vector<std::unique_ptr<Event>>, Later> queue_;
  lv::Rng rng_;
  // Live detached frames by spawn order: a frame still parked on the queue
  // when the engine dies is unreachable any other way, so ~Engine destroys
  // the survivors (newest first).
  std::map<uint64_t, void*> detached_frames_;
  uint64_t next_detached_id_ = 0;
};

inline void EventHandle::Cancel() {
  if (auto s = state_.lock()) {
    if (!s->cancelled) {
      s->cancelled = true;
      if (s->owner != nullptr) {
        s->owner->NoteCancelled();
      }
    }
  }
}

}  // namespace sim
