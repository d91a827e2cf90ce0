#ifndef CCSIM_COMMON_FLAT_HASH_H_
#define CCSIM_COMMON_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "ccsim/sim/check.h"

namespace ccsim::common {

/// Fibonacci hash for integral keys (page keys, TxnIds). Multiplicative
/// mixing spreads sequential ids; the high bits are the well-mixed ones, so
/// shift before the table masks.
struct FibHash {
  std::size_t operator()(std::uint64_t k) const noexcept {
    return static_cast<std::size_t>((k * 0x9e3779b97f4a7c15ull) >> 16);
  }
};

/// Open-addressing hash map with linear probing and backward-shift deletion
/// (no tombstones), storing slots inline in one flat array: no per-node heap
/// allocation, ever. Replaces the per-page
/// ordered-map / unordered-map nodes in the lock table and waits-for graph,
/// where node churn dominated the megascale memory profile (DESIGN.md
/// decision #12).
///
/// Deliberately minimal and value-oriented:
///   - Keys are integral (hashed via FibHash); values need only be
///     nothrow-movable. Slots are move-relocated on growth and on
///     backward-shift deletion, so pointers/references returned by Find()
///     are invalidated by ANY mutation of the map — callers re-Find after
///     mutating, never hold references across inserts or erases.
///   - No iterators. ForEach visits entries in table (hash) order, which is
///     deterministic for a given insert/erase history but not sorted —
///     semantic iteration sites must sort keys first, exactly as they had
///     to with std::unordered_map (enforced by ccsim_analyze).
///   - Move-only, like the containers it replaces.
template <typename K, typename V, typename Hash = FibHash>
class FlatHashMap {
  static_assert(std::is_integral_v<K>, "flat map keys are integral ids");
  static_assert(std::is_nothrow_move_constructible_v<V>,
                "values must be nothrow-movable (relocation moves them)");

 public:
  FlatHashMap() noexcept = default;
  FlatHashMap(FlatHashMap&& other) noexcept { Steal(other); }
  FlatHashMap& operator=(FlatHashMap&& other) noexcept {
    if (this != &other) {
      Clear();
      ReleaseStorage();
      Steal(other);
    }
    return *this;
  }
  FlatHashMap(const FlatHashMap&) = delete;
  FlatHashMap& operator=(const FlatHashMap&) = delete;
  ~FlatHashMap() {
    Clear();
    ReleaseStorage();
  }

  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  /// Bytes per slot: capacity is high-water, so this multiplies the
  /// footprint of a large table.
  static constexpr std::size_t slot_bytes() noexcept { return sizeof(Slot); }

  /// Pointer to the value for `key`, or nullptr. Invalidated by mutation.
  V* Find(K key) {
    if (count_ == 0) return nullptr;
    std::size_t i = Probe(key);
    return occupied_[i] ? &slots_[i].value : nullptr;
  }
  const V* Find(K key) const {
    return const_cast<FlatHashMap*>(this)->Find(key);
  }

  bool Contains(K key) const { return Find(key) != nullptr; }

  /// Inserts a default-constructed value if absent; returns the value.
  V& operator[](K key) { return *TryEmplace(key).first; }

  /// Inserts V(args...) if `key` is absent. Returns {value, inserted}.
  template <typename... Args>
  std::pair<V*, bool> TryEmplace(K key, Args&&... args) {
    if ((count_ + 1) * 4 > capacity_ * 3) Grow();
    std::size_t i = Probe(key);
    if (occupied_[i]) return {&slots_[i].value, false};
    ::new (static_cast<void*>(&slots_[i])) Slot{
        key, V(std::forward<Args>(args)...)};
    occupied_[i] = 1;
    ++count_;
    return {&slots_[i].value, true};
  }

  /// Removes `key`; returns true if it was present.
  bool Erase(K key) {
    if (count_ == 0) return false;
    std::size_t i = Probe(key);
    if (!occupied_[i]) return false;
    slots_[i].~Slot();
    occupied_[i] = 0;
    // Backward-shift deletion: relocate displaced successors into the hole
    // so probe chains stay intact. Successor j moves iff the hole lies
    // cyclically within [home(j), j].
    std::size_t mask = capacity_ - 1;
    std::size_t hole = i;
    for (std::size_t j = (i + 1) & mask; occupied_[j]; j = (j + 1) & mask) {
      std::size_t home = hash_(static_cast<std::uint64_t>(slots_[j].key)) &
                         mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        ::new (static_cast<void*>(&slots_[hole]))
            Slot(std::move(slots_[j]));
        slots_[j].~Slot();
        occupied_[hole] = 1;
        occupied_[j] = 0;
        hole = j;
      }
    }
    --count_;
    return true;
  }

  void Clear() noexcept {
    for (std::size_t i = 0; count_ > 0 && i < capacity_; ++i) {
      if (!occupied_[i]) continue;
      slots_[i].~Slot();
      occupied_[i] = 0;
      --count_;
    }
  }

  /// Visits every (key, value) in table order — deterministic but unsorted;
  /// sort keys first when order is observable. Must not mutate the map.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (occupied_[i]) fn(slots_[i].key, slots_[i].value);
    }
  }

 private:
  struct Slot {
    K key;
    V value;
  };

  /// Index of `key`'s slot, or of the empty slot where it would go.
  std::size_t Probe(K key) const {
    std::size_t mask = capacity_ - 1;
    std::size_t i = hash_(static_cast<std::uint64_t>(key)) & mask;
    while (occupied_[i] && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  void Grow() {
    std::size_t new_cap = capacity_ == 0 ? 16 : capacity_ * 2;
    Slot* old_slots = slots_;
    std::vector<unsigned char> old_occupied = std::move(occupied_);
    std::size_t old_cap = capacity_;

    slots_ = static_cast<Slot*>(::operator new(
        new_cap * sizeof(Slot), std::align_val_t{alignof(Slot)}));
    occupied_.assign(new_cap, 0);
    capacity_ = new_cap;

    for (std::size_t i = 0; i < old_cap; ++i) {
      if (!old_occupied[i]) continue;
      std::size_t j = Probe(old_slots[i].key);
      ::new (static_cast<void*>(&slots_[j])) Slot(std::move(old_slots[i]));
      occupied_[j] = 1;
      old_slots[i].~Slot();
    }
    if (old_slots != nullptr) {
      ::operator delete(old_slots, std::align_val_t{alignof(Slot)});
    }
  }

  void Steal(FlatHashMap& other) noexcept {
    slots_ = other.slots_;
    occupied_ = std::move(other.occupied_);
    capacity_ = other.capacity_;
    count_ = other.count_;
    other.slots_ = nullptr;
    other.occupied_.clear();
    other.capacity_ = 0;
    other.count_ = 0;
  }

  void ReleaseStorage() noexcept {
    if (slots_ != nullptr) {
      ::operator delete(slots_, std::align_val_t{alignof(Slot)});
      slots_ = nullptr;
    }
    capacity_ = 0;
  }

  Slot* slots_ = nullptr;
  std::vector<unsigned char> occupied_;
  std::size_t capacity_ = 0;
  std::size_t count_ = 0;
  [[no_unique_address]] Hash hash_;
};

}  // namespace ccsim::common

#endif  // CCSIM_COMMON_FLAT_HASH_H_
