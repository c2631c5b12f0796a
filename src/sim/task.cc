// The coroutine frame recycler declared in task.h.
#include "src/sim/task.h"

#include <new>

namespace sim::internal {

namespace {

constexpr std::size_t kFrameClassBytes = 64;
constexpr std::size_t kFrameClasses = kMaxRecycledFrame / kFrameClassBytes;

// One thread's free lists: the first word of each cached block links to the
// next. Trivially destructible, so it stays readable after the Reaper below
// has run, while the thread's other thread_local and (on the main thread)
// static objects are destroyed and may still free frames.
struct FreeLists {
  void* head[kFrameClasses];
  bool reaper_armed;  // this thread's Reaper is registered
  bool gone;          // the Reaper ran: cache nothing more
};
constinit thread_local FreeLists t_lists{};

// Hands the thread's cached blocks back to the allocator when the thread
// exits (the main thread's run before its static destructors).
struct Reaper {
  ~Reaper() {
    for (std::size_t c = 0; c < kFrameClasses; ++c) {
      while (void* block = t_lists.head[c]) {
        t_lists.head[c] = *static_cast<void**>(block);
        ::operator delete(block, (c + 1) * kFrameClassBytes);
      }
    }
    t_lists.gone = true;
  }
};

bool Recycled(std::size_t size) { return kRecycleFrames && size <= kMaxRecycledFrame; }

std::size_t ClassOf(std::size_t size) { return (size - 1) / kFrameClassBytes; }

// What a recycled frame really occupies: its whole size class.
std::size_t BlockBytes(std::size_t size) {
  return Recycled(size) ? (ClassOf(size) + 1) * kFrameClassBytes : size;
}

}  // namespace

void* AllocateFrame(std::size_t size) {
  if (Recycled(size)) {
    void*& head = t_lists.head[ClassOf(size)];
    if (void* block = head) {
      head = *static_cast<void**>(block);
      return block;
    }
  }
  return ::operator new(BlockBytes(size));
}

void FreeFrame(void* frame, std::size_t size) noexcept {
  if (!Recycled(size) || t_lists.gone) {
    ::operator delete(frame, BlockBytes(size));
    return;
  }
  if (!t_lists.reaper_armed) {
    static thread_local Reaper reaper;
    t_lists.reaper_armed = true;
  }
  void*& head = t_lists.head[ClassOf(size)];
  *static_cast<void**>(frame) = head;
  head = frame;
}

}  // namespace sim::internal
