// IdTable: a hash table keyed by the int64 ids the simulator issues — domain
// ids, event-channel ports, grant refs, cluster placement keys.
//
// Open addressing over a power-of-two slot array, with Fibonacci hashing of
// the key and linear probing. An erase shifts the rest of its probe run back
// instead of leaving a tombstone, so a lookup never scans a dead slot. The
// load stays at most 1/2.
//
// Each value is allocated once and never moves: a reference or pointer to it
// stays valid, however the table grows, until its id is erased. Lifecycle
// coroutines rely on that when they hold a value across a suspension point
// at which other coroutines insert.
//
// ForEach visits values in slot order, which depends on the ids and on how
// the table grew. No simulated decision may depend on it: callers count, sum
// or sort what they visit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace lv {

template <typename T>
class IdTable {
 public:
  // Fibonacci hashing: an id's home slot is the top bits of id * kMultiplier
  // (2^64 divided by the golden ratio, rounded to odd).
  static constexpr uint64_t kMultiplier = 0x9E3779B97F4A7C15ull;

  size_t size() const { return size_; }

  T* Find(int64_t id) {
    if (size_ == 0) {
      return nullptr;
    }
    return slots_[SlotOf(id)].value.get();
  }
  const T* Find(int64_t id) const { return const_cast<IdTable*>(this)->Find(id); }
  bool Contains(int64_t id) const { return Find(id) != nullptr; }

  // Constructs T(args...) under `id` unless `id` is present, in which case
  // the arguments are left untouched. Returns the value under `id` and
  // whether it was inserted.
  template <typename... Args>
  std::pair<T*, bool> TryEmplace(int64_t id, Args&&... args) {
    if (2 * (size_ + 1) > slots_.size()) {
      Grow();
    }
    Slot& slot = slots_[SlotOf(id)];
    if (slot.value) {
      return {slot.value.get(), false};
    }
    slot.id = id;
    slot.value = std::make_unique<T>(std::forward<Args>(args)...);
    ++size_;
    return {slot.value.get(), true};
  }
  // The value under `id`, default-constructed if absent.
  T& operator[](int64_t id) { return *TryEmplace(id).first; }

  // Removes `id`; returns whether it was present. The value is destroyed
  // after the table is consistent again, so its destructor may use it.
  bool Erase(int64_t id) {
    if (size_ == 0) {
      return false;
    }
    size_t hole = SlotOf(id);
    std::unique_ptr<T> erased = std::move(slots_[hole].value);
    if (!erased) {
      return false;
    }
    const size_t mask = slots_.size() - 1;
    // Backward shift: an entry further along the run moves into the hole
    // unless the hole lies before its home slot.
    for (size_t next = (hole + 1) & mask; slots_[next].value; next = (next + 1) & mask) {
      if (((next - Home(slots_[next].id)) & mask) >= ((next - hole) & mask)) {
        slots_[hole] = std::move(slots_[next]);
        hole = next;
      }
    }
    --size_;
    return true;
  }

  // Calls f(id, value) for every entry, in slot order. `f` must not insert
  // or erase.
  template <typename F>
  void ForEach(F&& f) const {
    for (const Slot& slot : slots_) {
      if (slot.value) {
        f(slot.id, static_cast<const T&>(*slot.value));
      }
    }
  }

 private:
  struct Slot {
    int64_t id = 0;
    std::unique_ptr<T> value;  // null: the slot is free
  };

  size_t Home(int64_t id) const {
    return static_cast<size_t>((static_cast<uint64_t>(id) * kMultiplier) >> shift_);
  }
  // The slot holding `id`, or the free slot that ends its probe run. The
  // table must have slots.
  size_t SlotOf(int64_t id) const {
    const size_t mask = slots_.size() - 1;
    size_t i = Home(id);
    while (slots_[i].value && slots_[i].id != id) {
      i = (i + 1) & mask;
    }
    return i;
  }
  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(old.empty() ? 16 : 2 * old.size());
    shift_ = 64;
    for (size_t n = slots_.size(); n > 1; n >>= 1) {
      --shift_;
    }
    for (Slot& slot : old) {
      if (slot.value) {
        slots_[SlotOf(slot.id)] = std::move(slot);
      }
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  // 64 - log2(slots_.size()): Home keeps the product's top bits.
  int shift_ = 64;
};

}  // namespace lv
