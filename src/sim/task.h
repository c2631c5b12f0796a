// Coroutine task type for the discrete-event simulator.
//
// Co<T> is a lazy task: creating one does not run any code; it starts when
// awaited (or when detached onto the engine via Engine::Spawn). Completion
// resumes the awaiting coroutine by symmetric transfer, so long chains of
// control-plane steps (toolstack -> XenStore -> driver -> guest) run without
// stack growth.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "src/base/assert.h"

namespace sim {

template <typename T>
class Co;

namespace internal {

// Frame recycler (task.cc). Every Co frame is allocated through the
// promise's operator new below: a frame of up to kMaxRecycledFrame bytes
// comes from, and goes back to, a per-thread free list for its 64-byte size
// class, so a warmed-up co_await calls no allocator. Larger frames, and a
// frame freed after its thread's lists are gone, use ::operator new and
// delete directly. So does every frame under AddressSanitizer, whose
// quarantine then still catches a dead frame that is resumed or touched.
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kRecycleFrames = false;
#else
inline constexpr bool kRecycleFrames = true;
#endif
inline constexpr std::size_t kMaxRecycledFrame = 4096;
void* AllocateFrame(std::size_t size);
void FreeFrame(void* frame, std::size_t size) noexcept;

// Links of an engine's circular list of live detached frames, with the
// engine's own sentinel as the head. Engine::Spawn links a frame in and the
// frame unlinks itself at final suspend, so the frames still parked when
// the engine dies are exactly the ones on the list (a detached frame has no
// owner, so nobody else can destroy them).
struct DetachedLink {
  DetachedLink* prev = nullptr;
  DetachedLink* next = nullptr;

  // Inserts this link just before `at` (at the tail when `at` is the head).
  void LinkBefore(DetachedLink* at) noexcept {
    prev = at->prev;
    next = at;
    prev->next = this;
    at->prev = this;
  }
  void Unlink() noexcept {
    if (next != nullptr) {
      prev->next = next;
      next->prev = prev;
      prev = next = nullptr;
    }
  }
};

struct PromiseBase : DetachedLink {
  std::coroutine_handle<> continuation = std::noop_coroutine();
  // A detached frame destroys itself at final suspend. Engine::Spawn also
  // links it into the engine's list; a frame detached mid-flight by its
  // owner (see ~Guest) is not on any list.
  bool detached = false;
  std::exception_ptr exception;

  static void* operator new(std::size_t size) { return AllocateFrame(size); }
  static void operator delete(void* frame, std::size_t size) noexcept {
    FreeFrame(frame, size);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
      PromiseBase& p = h.promise();
      std::coroutine_handle<> cont = p.continuation;
      if (p.detached) {
        // A detached task has nobody to observe an exception.
        LV_CHECK_MSG(!p.exception, "unhandled exception in detached sim task");
        p.Unlink();
        h.destroy();
      }
      return cont;
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;
  Co<T> get_return_object();
  void return_value(T v) { value = std::move(v); }
};

template <>
struct Promise<void> : PromiseBase {
  Co<void> get_return_object();
  void return_void() {}
};

}  // namespace internal

template <typename T = void>
class [[nodiscard]] Co {
 public:
  using promise_type = internal::Promise<T>;

  Co() = default;
  explicit Co(std::coroutine_handle<promise_type> h) : h_(h) {}
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  Co(Co&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Co& operator=(Co&& o) noexcept {
    if (this != &o) {
      Destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  ~Co() { Destroy(); }

  bool valid() const { return h_ != nullptr; }

  // True once the task has run to completion (it is parked at its final
  // suspend point). Only meaningful for owner-started tasks: a detached frame
  // destroys itself on completion.
  bool done() const { return h_ != nullptr && h_.done(); }

  // Awaitable protocol: awaiting a Co starts it and suspends the caller until
  // it completes.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
    LV_CHECK_MSG(h_ != nullptr, "awaiting an empty Co");
    h_.promise().continuation = cont;
    return h_;
  }
  T await_resume() {
    internal::Promise<T>& p = h_.promise();
    if (p.exception) {
      std::rethrow_exception(p.exception);
    }
    if constexpr (!std::is_void_v<T>) {
      return std::move(*p.value);
    }
  }

  // Starts the task while the caller retains ownership of the frame: runs it
  // until its first suspension, exactly like Engine::Spawn but without
  // detaching. Unlike a detached task, the frame survives completion and is
  // destroyed by ~Co — use this for daemon-style loops that may still be
  // parked on a sync primitive when their owner is torn down, where a
  // detached frame would be unreachable (and leak). An exception escaping an
  // owner-started task that is never awaited is dropped with the frame.
  void Start() {
    LV_CHECK_MSG(h_ != nullptr, "starting an empty Co");
    h_.resume();
  }

  // Transfers ownership of the frame out (used by Engine::Spawn to detach).
  std::coroutine_handle<promise_type> Release() { return std::exchange(h_, nullptr); }

 private:
  void Destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> h_;
};

namespace internal {

template <typename T>
Co<T> Promise<T>::get_return_object() {
  return Co<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Co<void> Promise<void>::get_return_object() {
  return Co<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace internal

}  // namespace sim
