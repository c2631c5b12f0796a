#include "src/sim/engine.h"

#include <algorithm>
#include <utility>

#include "src/base/log.h"
#include "src/obs/obs.h"
#include "src/trace/trace.h"

namespace sim {

namespace {

TimePoint LoggerNow(void* ctx) { return static_cast<Engine*>(ctx)->now(); }

}  // namespace

Engine::Engine(uint64_t seed) : rng_(seed) {
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
  while (!detached_frames_.empty()) {
    auto it = std::prev(detached_frames_.end());
    void* frame = it->second;
    detached_frames_.erase(it);
    std::coroutine_handle<>::from_address(frame).destroy();
  }
  lv::Logger::Get().DetachClock();
  trace::Tracer::Get().DetachClock();
  obs::FlightRecorder::Get().DetachClock();
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
  heap_.push_back(Entry{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
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

void Engine::NoteCancelled() {
  ++cancelled_pending_;
  // Lazy compaction: once dead entries dominate, the heap mostly shuffles
  // garbage — rebuild it. The floor keeps tiny queues (where pops drain the
  // dead entries for free) from compacting on every other Cancel.
  if (heap_.size() >= 64 && cancelled_pending_ * 2 > heap_.size()) {
    Compact();
  }
}

void Engine::Compact() {
  auto dead = std::partition(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return !slots_[e.slot].cancelled; });
  for (auto it = dead; it != heap_.end(); ++it) {
    Drop(it->slot);
  }
  heap_.erase(dead, heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  cancelled_pending_ = 0;
  ++compactions_;
}

void Engine::Spawn(Co<void> task) {
  auto h = task.Release();
  LV_CHECK_MSG(h != nullptr, "spawning an empty task");
  internal::Promise<void>& p = h.promise();
  p.detached = true;
  p.reap = &Engine::ReapDetached;
  p.reap_ctx = this;
  p.reap_id = next_detached_id_++;
  detached_frames_.emplace(p.reap_id, h.address());
  h.resume();
}

void Engine::ReapDetached(void* ctx, uint64_t id) {
  static_cast<Engine*>(ctx)->detached_frames_.erase(id);
}

bool Engine::SkipCancelled() {
  while (!heap_.empty()) {
    uint32_t slot = heap_.front().slot;
    if (!slots_[slot].cancelled) {
      return true;
    }
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    Drop(slot);
    --cancelled_pending_;
  }
  return false;
}

void Engine::DispatchTop() {
  const Entry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  now_ = top.when;
  ++processed_;
  Slot& s = slots_[top.slot];
  if (std::coroutine_handle<> h = std::exchange(s.coro, nullptr)) {
    Release(top.slot);
    h.resume();
    return;
  }
  std::function<void()> fn;
  fn.swap(s.fn);
  Release(top.slot);
  fn();
}

bool Engine::Step() {
  if (!SkipCancelled()) {
    return false;
  }
  DispatchTop();
  return true;
}

void Engine::Run() {
  while (Step()) {
  }
}

void Engine::RunUntil(TimePoint t) {
  while (SkipCancelled() && heap_.front().when <= t) {
    DispatchTop();
  }
  if (now_ < t) {
    now_ = t;
  }
}

}  // namespace sim
