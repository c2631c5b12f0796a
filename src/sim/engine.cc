#include "src/sim/engine.h"

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
  LV_CHECK_MSG(when >= now_, "cannot schedule an event in the simulated past");
  auto ev = std::make_unique<Event>();
  ev->when = when;
  ev->seq = next_seq_++;
  ev->fn = std::move(fn);
  ev->state = std::make_shared<EventHandle::State>();
  ev->state->owner = this;
  EventHandle handle{std::weak_ptr<EventHandle::State>(ev->state)};
  queue_.push(std::move(ev));
  return handle;
}

void Engine::NoteCancelled() {
  ++cancelled_pending_;
  // Lazy compaction: once dead entries dominate, the heap mostly shuffles
  // garbage — rebuild it. The floor keeps tiny queues (where pops drain the
  // dead entries for free) from compacting on every other Cancel.
  if (queue_.size() >= 64 && cancelled_pending_ * 2 > queue_.size()) {
    Compact();
  }
}

void Engine::Compact() {
  std::vector<std::unique_ptr<Event>> live;
  live.reserve(queue_.size() - cancelled_pending_);
  while (!queue_.empty()) {
    auto& top = const_cast<std::unique_ptr<Event>&>(queue_.top());
    std::unique_ptr<Event> ev = std::move(top);
    queue_.pop();
    if (!ev->state->cancelled) {
      live.push_back(std::move(ev));
    } else {
      ev->state->owner = nullptr;
    }
  }
  queue_ = decltype(queue_)(Later{}, std::move(live));
  cancelled_pending_ = 0;
  ++compactions_;
}

void Engine::Spawn(Co<void> task) {
  auto h = task.Release();
  LV_CHECK_MSG(h != nullptr, "spawning an empty task");
  trace::Count("engine.tasks_spawned", 1);
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

std::unique_ptr<Engine::Event> Engine::PopNext() {
  while (!queue_.empty()) {
    // priority_queue::top() is const; move is safe because we pop right away.
    auto& top = const_cast<std::unique_ptr<Event>&>(queue_.top());
    std::unique_ptr<Event> ev = std::move(top);
    queue_.pop();
    ev->state->owner = nullptr;
    if (!ev->state->cancelled) {
      return ev;
    }
    --cancelled_pending_;
  }
  return nullptr;
}

bool Engine::Step() {
  std::unique_ptr<Event> ev = PopNext();
  if (!ev) {
    return false;
  }
  now_ = ev->when;
  ++processed_;
  trace::Count("engine.events", 1);
  ev->fn();
  return true;
}

void Engine::Run() {
  while (Step()) {
  }
}

void Engine::RunUntil(TimePoint t) {
  while (true) {
    std::unique_ptr<Event> ev = PopNext();
    if (!ev) {
      break;
    }
    if (ev->when > t) {
      // Put it back; it stays pending beyond the horizon.
      ev->state->owner = this;
      queue_.push(std::move(ev));
      break;
    }
    now_ = ev->when;
    ++processed_;
    trace::Count("engine.events", 1);
    ev->fn();
  }
  if (now_ < t) {
    now_ = t;
  }
}

size_t Engine::pending_events() const { return queue_.size(); }

}  // namespace sim
