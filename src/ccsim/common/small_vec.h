#ifndef CCSIM_COMMON_SMALL_VEC_H_
#define CCSIM_COMMON_SMALL_VEC_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "ccsim/sim/check.h"

namespace ccsim::common {

/// A vector with inline storage for its first `N` elements, used where the
/// common case is tiny (lock holders, wait queues, waits-for out-edges) and
/// per-element heap nodes would dominate memory: a SmallVec that never
/// exceeds N elements performs zero heap allocations, so churning millions
/// of them leaves malloc untouched (the megascale memory diet, DESIGN.md
/// decision #12).
///
/// Deliberately minimal: grow-only capacity, move-only (some element types
/// it holds — Completion handles — are reference-counted, and copying a
/// container of them is always a bug in this codebase), and only the
/// operations the lock table and waits-for graph need. Iterators are plain
/// pointers; any mutation invalidates them.
template <typename T, std::size_t N>
class SmallVec {
  static_assert(N > 0, "inline capacity must be at least 1");
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "elements must be nothrow-movable (grow moves them)");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() noexcept : data_(inline_data()), size_(0), capacity_(N) {}

  SmallVec(SmallVec&& other) noexcept : SmallVec() { StealFrom(other); }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      DestroyAll();
      StealFrom(other);
    }
    return *this;
  }
  SmallVec(const SmallVec&) = delete;
  SmallVec& operator=(const SmallVec&) = delete;

  ~SmallVec() { DestroyAll(); }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }
  /// True while the elements live in the inline buffer (test hook).
  bool is_inline() const noexcept { return data_ == inline_data(); }

  T& operator[](std::size_t i) {
    CCSIM_DCHECK(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    CCSIM_DCHECK(i < size_);
    return data_[i];
  }
  T& front() { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }

  iterator begin() noexcept { return data_; }
  iterator end() noexcept { return data_ + size_; }
  const_iterator begin() const noexcept { return data_; }
  const_iterator end() const noexcept { return data_ + size_; }

  void push_back(T value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) Grow(capacity_ * 2);
    T* slot = data_ + size_;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  /// Inserts before index `pos` (0..size), shifting the tail up.
  void insert(std::size_t pos, T value) {
    CCSIM_DCHECK(pos <= size_);
    emplace_back(std::move(value));  // may grow; constructs at the end
    for (std::size_t i = size_ - 1; i > pos; --i) {
      std::swap(data_[i - 1], data_[i]);
    }
  }

  /// Erases index `pos`, shifting the tail down (preserves order).
  void erase(std::size_t pos) {
    CCSIM_DCHECK(pos < size_);
    for (std::size_t i = pos + 1; i < size_; ++i) {
      data_[i - 1] = std::move(data_[i]);
    }
    pop_back();
  }

  void pop_back() {
    CCSIM_DCHECK(size_ > 0);
    --size_;
    data_[size_].~T();
  }

  void clear() noexcept { DestroyElements(); }

  void reserve(std::size_t n) {
    if (n > capacity_) Grow(n);
  }

 private:
  T* inline_data() noexcept { return reinterpret_cast<T*>(inline_buf_); }
  const T* inline_data() const noexcept {
    return reinterpret_cast<const T*>(inline_buf_);
  }

  void Grow(std::size_t new_cap) {
    T* fresh = static_cast<T*>(
        ::operator new(new_cap * sizeof(T), std::align_val_t{alignof(T)}));
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    ReleaseHeap();
    data_ = fresh;
    capacity_ = new_cap;
  }

  /// Moves `other`'s contents here: steals the heap buffer outright, or
  /// moves elements one by one when they sit in `other`'s inline buffer.
  void StealFrom(SmallVec& other) noexcept {
    if (other.is_inline()) {
      for (std::size_t i = 0; i < other.size_; ++i) {
        ::new (static_cast<void*>(inline_data() + i))
            T(std::move(other.data_[i]));
      }
      size_ = other.size_;
      other.DestroyElements();
    } else {
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = other.inline_data();
      other.size_ = 0;
      other.capacity_ = N;
    }
  }

  void DestroyElements() noexcept {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }

  void ReleaseHeap() noexcept {
    if (!is_inline()) {
      ::operator delete(data_, std::align_val_t{alignof(T)});
    }
  }

  void DestroyAll() noexcept {
    DestroyElements();
    ReleaseHeap();
    data_ = inline_data();
    capacity_ = N;
  }

  alignas(T) unsigned char inline_buf_[N * sizeof(T)];
  T* data_;
  std::size_t size_;
  std::size_t capacity_;
};

}  // namespace ccsim::common

#endif  // CCSIM_COMMON_SMALL_VEC_H_
