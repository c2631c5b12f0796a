#include "src/sim/engine.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "src/base/log.h"
#include "src/obs/obs.h"
#include "src/trace/trace.h"

namespace sim {

namespace {

TimePoint LoggerNow(void* ctx) { return static_cast<Engine*>(ctx)->now(); }

}  // namespace

Engine::Engine(uint64_t seed) : rng_(seed) {
  detached_.prev = detached_.next = &detached_;
  lv::Logger::Get().AttachClock(&LoggerNow, this);
  trace::Tracer::Get().AttachClock(&LoggerNow, this);
  obs::FlightRecorder::Get().AttachClock(&LoggerNow, this);
}

Engine::~Engine() {
  // Reclaim detached frames still parked on the queue. Destroying a frame
  // only unwinds its locals (awaiter destructors cancel their events; nothing
  // resumes), but those destructors may themselves spawn or finish other
  // detached tasks, so loop rather than iterate. Newest first, so a late
  // frame referencing state owned by an earlier one unwinds before it.
  while (detached_.prev != &detached_) {
    auto& newest = *static_cast<internal::Promise<void>*>(detached_.prev);
    newest.Unlink();
    std::coroutine_handle<internal::Promise<void>>::from_promise(newest).destroy();
  }
  lv::Logger::Get().DetachClock();
  trace::Tracer::Get().DetachClock();
  obs::FlightRecorder::Get().DetachClock();
}

Timer::Timer(Timer&& other) noexcept : engine_(other.engine_), fn_(std::move(other.fn_)) {
  LV_CHECK_MSG(!other.armed(), "an armed timer cannot move");
}

Timer& Timer::operator=(Timer&& other) noexcept {
  LV_CHECK_MSG(!armed() && !other.armed(), "an armed timer cannot move");
  engine_ = other.engine_;
  fn_ = std::move(other.fn_);
  return *this;
}

EventHandle Engine::ScheduleAt(TimePoint when, std::function<void()> fn) {
  uint32_t slot = Push(when);
  slots_[slot].fn = std::move(fn);
  return EventHandle(this, slot, slots_[slot].generation);
}

EventHandle Engine::ScheduleAt(TimePoint when, std::coroutine_handle<> h) {
  uint32_t slot = Push(when);
  slots_[slot].coro = h;
  return EventHandle(this, slot, slots_[slot].generation);
}

uint32_t Engine::Push(TimePoint when) {
  LV_CHECK_MSG(when >= now_, "cannot schedule an event in the simulated past");
  uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Entry entry{when, next_seq_++, slot};
  if (when == now_) {
    lane_.push_back(entry);
  } else {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  return slot;
}

void Engine::Release(uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.generation;
  s.cancelled = false;
  free_.push_back(slot);
}

void Engine::Drop(uint32_t slot) {
  std::function<void()> dead;
  dead.swap(slots_[slot].fn);
  slots_[slot].coro = nullptr;
  Release(slot);
}

void Engine::ArmTimer(Timer& timer, TimePoint when) {
  LV_CHECK_MSG(when > now_, "a timer is armed at least 1 ns ahead");
  if (!timer.armed()) {
    timer.index_ = static_cast<uint32_t>(timers_.size());
    timers_.push_back(TimerEntry{when, next_seq_, &timer});
  } else {
    timers_[timer.index_].when = when;
    timers_[timer.index_].seq = next_seq_;
  }
  ++next_seq_;
  SiftTimer(timer.index_);
}

void Engine::DisarmTimer(Timer& timer) {
  size_t i = timer.index_;
  timer.index_ = Timer::kDisarmed;
  TimerEntry last = timers_.back();
  timers_.pop_back();
  if (i < timers_.size()) {
    timers_[i] = last;
    last.timer->index_ = static_cast<uint32_t>(i);
    SiftTimer(i);
  }
}

void Engine::SiftTimer(size_t i) {
  const TimerEntry moving = timers_[i];
  auto place = [this](size_t at, const TimerEntry& e) {
    timers_[at] = e;
    e.timer->index_ = static_cast<uint32_t>(at);
  };
  // Up past every later parent, then down past every earlier child (a
  // no-op once it has moved up).
  while (i > 0 && Later{}(timers_[(i - 1) / 2], moving)) {
    place(i, timers_[(i - 1) / 2]);
    i = (i - 1) / 2;
  }
  for (size_t child; (child = 2 * i + 1) < timers_.size(); i = child) {
    if (child + 1 < timers_.size() && Later{}(timers_[child], timers_[child + 1])) {
      ++child;
    }
    if (!Later{}(moving, timers_[child])) {
      break;
    }
    place(i, timers_[child]);
  }
  place(i, moving);
}

void Engine::Spawn(Co<void> task) {
  auto h = task.Release();
  LV_CHECK_MSG(h != nullptr, "spawning an empty task");
  internal::Promise<void>& p = h.promise();
  p.detached = true;
  p.LinkBefore(&detached_);
  h.resume();
}

Engine::Source Engine::Next() const {
  Source s = Source::kNone;
  const Entry* front = nullptr;
  if (lane_head_ < lane_.size() && (heap_.empty() || Later{}(heap_.front(), lane_[lane_head_]))) {
    s = Source::kLane;
    front = &lane_[lane_head_];
  } else if (!heap_.empty()) {
    s = Source::kHeap;
    front = &heap_.front();
  }
  if (!timers_.empty() && (front == nullptr || Later{}(*front, timers_.front()))) {
    return Source::kTimer;
  }
  return s;
}

TimePoint Engine::When(Source s) const {
  switch (s) {
    case Source::kLane:
      return lane_[lane_head_].when;
    case Source::kHeap:
      return heap_.front().when;
    default:
      return timers_.front().when;
  }
}

Engine::Entry Engine::Pop(Source s) {
  if (s == Source::kLane) {
    Entry front = lane_[lane_head_++];
    if (lane_head_ == lane_.size()) {
      lane_.clear();
      lane_head_ = 0;
    }
    return front;
  }
  Entry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  return top;
}

Engine::Source Engine::SkipCancelled(TimePoint until) {
  for (;;) {
    Source s = Next();
    // A timer is never cancelled: Disarm takes it out.
    if (s == Source::kNone || s == Source::kTimer) {
      return s;
    }
    uint32_t slot = s == Source::kLane ? lane_[lane_head_].slot : heap_.front().slot;
    if (!slots_[slot].cancelled || When(s) > until) {
      return s;
    }
    Drop(Pop(s).slot);
    --cancelled_pending_;
  }
}

void Engine::Dispatch(Source s) {
  ++processed_;
  if (s == Source::kTimer) {
    Timer& timer = *timers_.front().timer;
    now_ = timers_.front().when;
    DisarmTimer(timer);
    if (std::coroutine_handle<> h = timer.fn_()) {
      WakeAfterTimer(h);
    }
    return;
  }
  const Entry top = Pop(s);
  now_ = top.when;
  Slot& slot = slots_[top.slot];
  if (std::coroutine_handle<> h = std::exchange(slot.coro, nullptr)) {
    Release(top.slot);
    h.resume();
    return;
  }
  std::function<void()> fn;
  fn.swap(slot.fn);
  Release(top.slot);
  fn();
}

void Engine::WakeAfterTimer(std::coroutine_handle<> h) {
  // Queued, `h` would join the lane at now() with the highest seq so far,
  // so every lane entry, heap entry due now and timer due now precedes it.
  // The next Step would drop the cancelled ones among them, so drop them
  // here too; if a live one is left, the wake-up queues behind it.
  Source s = SkipCancelled(now_);
  if (s != Source::kNone && When(s) == now_) {
    Schedule(Duration(), h);
    return;
  }
  // Nothing precedes it: it runs now, taking the seq and the count a queued
  // wake-up would, but no slot and no Step.
  ++next_seq_;
  ++processed_;
  h.resume();
}

bool Engine::Step() {
  Source s = SkipCancelled();
  if (s == Source::kNone) {
    return false;
  }
  Dispatch(s);
  return true;
}

void Engine::Run() {
  while (Step()) {
  }
}

void Engine::RunUntil(TimePoint t) {
  for (Source s; (s = SkipCancelled()) != Source::kNone && When(s) <= t;) {
    Dispatch(s);
  }
  if (now_ < t) {
    now_ = t;
  }
}

}  // namespace sim
