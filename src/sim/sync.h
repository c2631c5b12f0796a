// Coroutine synchronization primitives for the simulator: one-shot events,
// counting semaphores, unbounded channels and shared futures.
//
// All wake-ups go through the engine's event queue (at the current simulated
// time) rather than resuming inline. That keeps notification order
// deterministic and prevents unbounded recursion when a Trigger() cascades.
#pragma once

#include <coroutine>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "src/base/assert.h"
#include "src/sim/engine.h"

namespace sim {

// One-shot level-triggered event: Wait() returns immediately once Trigger()
// has been called; otherwise it suspends until the trigger.
class OneShotEvent {
 public:
  explicit OneShotEvent(Engine* engine) : engine_(engine) {}
  OneShotEvent(const OneShotEvent&) = delete;
  OneShotEvent& operator=(const OneShotEvent&) = delete;

  bool triggered() const { return triggered_; }

  void Trigger() {
    if (triggered_) {
      return;
    }
    triggered_ = true;
    for (std::coroutine_handle<> h : waiters_) {
      engine_->Schedule(Duration(), h);
    }
    waiters_.clear();
  }

  struct Awaiter {
    OneShotEvent* ev;
    bool await_ready() const noexcept { return ev->triggered_; }
    void await_suspend(std::coroutine_handle<> h) { ev->waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };
  Awaiter Wait() { return Awaiter{this}; }

 private:
  Engine* engine_;
  bool triggered_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

// Counting semaphore with FIFO handoff.
class Semaphore {
 public:
  Semaphore(Engine* engine, int64_t initial) : engine_(engine), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  int64_t available() const { return count_; }
  int64_t waiters() const { return static_cast<int64_t>(waiters_.size()); }

  struct Awaiter {
    Semaphore* sem;
    bool await_ready() const noexcept {
      if (sem->count_ > 0) {
        --sem->count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { sem->waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };
  Awaiter Acquire() { return Awaiter{this}; }

  bool TryAcquire() {
    if (count_ > 0) {
      --count_;
      return true;
    }
    return false;
  }

  void Release() {
    if (!waiters_.empty()) {
      std::coroutine_handle<> h = waiters_.front();
      waiters_.pop_front();
      engine_->Schedule(Duration(), h);
    } else {
      ++count_;
    }
  }

 private:
  Engine* engine_;
  int64_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Unbounded multi-producer channel. Receivers suspend when empty; values are
// handed to receivers in FIFO order.
template <typename T>
class Channel {
 public:
  explicit Channel(Engine* engine) : engine_(engine) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  size_t size() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }

  // Non-blocking receive of an already-queued value (never steals from a
  // parked receiver).
  std::optional<T> TryRecv() {
    if (queue_.empty()) {
      return std::nullopt;
    }
    T value = std::move(queue_.front());
    queue_.pop_front();
    return value;
  }

  void Send(T value) {
    if (Awaiter* rx = rx_head_) {
      rx_head_ = rx->next;
      if (rx_head_ == nullptr) {
        rx_tail_ = nullptr;
      }
      rx->slot = std::move(value);
      rx->wakeup = engine_->Schedule(Duration(), rx->handle);
    } else {
      queue_.push_back(std::move(value));
    }
  }

  struct Awaiter {
    Channel* ch;
    std::optional<T> slot;
    std::coroutine_handle<> handle;
    // Handle of the wake-up Send() scheduled for this awaiter, so a frame
    // destroyed while its wake-up is still in flight can cancel it instead of
    // letting the engine resume a dead coroutine.
    EventHandle wakeup;
    Awaiter* next = nullptr;  // the receiver parked after this one

    ~Awaiter() {
      if (!handle) {
        return;  // Never suspended; nothing registered.
      }
      // Destroying a suspended receiver: deregister so a later Send() cannot
      // hand a value to a dead frame, and cancel any in-flight wake-up.
      Awaiter* prev = nullptr;
      for (Awaiter* rx = ch->rx_head_; rx != nullptr; prev = rx, rx = rx->next) {
        if (rx == this) {
          (prev == nullptr ? ch->rx_head_ : prev->next) = next;
          if (ch->rx_tail_ == this) {
            ch->rx_tail_ = prev;
          }
          break;
        }
      }
      wakeup.Cancel();
    }

    bool await_ready() noexcept {
      if (!ch->queue_.empty()) {
        slot = std::move(ch->queue_.front());
        ch->queue_.pop_front();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      (ch->rx_tail_ == nullptr ? ch->rx_head_ : ch->rx_tail_->next) = this;
      ch->rx_tail_ = this;
    }
    T await_resume() {
      LV_CHECK(slot.has_value());
      return std::move(*slot);
    }
  };
  Awaiter Recv() { return Awaiter{this, std::nullopt, nullptr, {}}; }

 private:
  Engine* engine_;
  std::deque<T> queue_;
  // Parked receivers in FIFO order, threaded through their awaiters (which
  // live in the parked frames), so parking allocates nothing.
  Awaiter* rx_head_ = nullptr;
  Awaiter* rx_tail_ = nullptr;
};

// One-shot shared future: Set() once, any number of Get() waiters. The value
// is copied to each waiter, and waiters wake in registration order. Copies
// of a SharedFuture share one state. The first waiter is kept inline in it,
// so a future with one waiter at a time allocates only that state.
template <typename T>
class SharedFuture {
 public:
  struct Awaiter;

  explicit SharedFuture(Engine* engine) : state_(std::make_shared<State>()) {
    state_->engine = engine;
  }

  bool has_value() const { return state_->value.has_value(); }
  const T& value() const {
    LV_CHECK(state_->value.has_value());
    return *state_->value;
  }

  void Set(T value) {
    LV_CHECK_MSG(!state_->value.has_value(), "SharedFuture set twice");
    State& st = *state_;
    st.value = std::move(value);
    if (st.first != nullptr) {
      st.first->wakeup = st.engine->Schedule(Duration(), st.first->handle);
      st.first = nullptr;
    }
    for (Awaiter* a : st.rest) {
      a->wakeup = st.engine->Schedule(Duration(), a->handle);
    }
    st.rest.clear();
  }

  struct State {
    Engine* engine = nullptr;
    std::optional<T> value;
    // Registration order is `first`, then `rest`: a waiter takes the inline
    // slot only while both are empty.
    Awaiter* first = nullptr;
    std::vector<Awaiter*> rest;
  };

  struct Awaiter {
    std::shared_ptr<State> state;
    std::coroutine_handle<> handle;
    EventHandle wakeup;

    ~Awaiter() {
      if (!handle) {
        return;  // Never suspended; nothing registered.
      }
      // Same contract as Channel::Awaiter: a destroyed waiter deregisters
      // itself and cancels any in-flight wake-up so the engine never resumes
      // a dead frame.
      if (state->first == this) {
        state->first = nullptr;
      } else {
        std::erase(state->rest, this);
      }
      wakeup.Cancel();
    }

    bool await_ready() const noexcept { return state->value.has_value(); }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      if (state->first == nullptr && state->rest.empty()) {
        state->first = this;
      } else {
        state->rest.push_back(this);
      }
    }
    T await_resume() { return *state->value; }
  };
  Awaiter Get() { return Awaiter{state_, nullptr, {}}; }

 private:
  std::shared_ptr<State> state_;
};

}  // namespace sim
