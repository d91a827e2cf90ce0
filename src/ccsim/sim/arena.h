#ifndef CCSIM_SIM_ARENA_H_
#define CCSIM_SIM_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "ccsim/sim/check.h"

// Manual ASan poisoning of arena free space: recycled blocks and page tails
// are poisoned so a use-after-free through the arena is caught exactly like
// one through malloc. Compiled out entirely in non-sanitized builds.
#if defined(__SANITIZE_ADDRESS__)
#define CCSIM_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CCSIM_ARENA_ASAN 1
#endif
#endif
#ifndef CCSIM_ARENA_ASAN
#define CCSIM_ARENA_ASAN 0
#endif

namespace ccsim::sim {

/// Per-simulation bump allocator with size-class recycling, built for the
/// kernel's churny fixed-population allocations: coroutine frames,
/// Completion control blocks, and Transaction state. Design (DESIGN.md
/// decision #12):
///
///   - Page-chained: memory comes in 64 KiB pages that are never returned
///     individually; the arena's footprint is the high-water mark of live
///     bytes, not the sum of allocations. A megascale run allocates and
///     frees millions of frames but the arena stays at the size of the
///     largest concurrent population.
///   - Size-class free lists: Deallocate pushes the block onto a free list
///     for its 16-byte size class and Allocate pops from it, so the steady
///     state is completely malloc-free *and* bump-pointer-free — unlike a
///     pure bump arena, long runs do not grow without bound.
///   - One arena per run: the arena belongs to one Simulation and dies
///     with it. Nothing allocated from it may outlive the Simulation;
///     member order in Simulation guarantees the arena is destroyed last
///     (see simulation.h).
///   - ASan-poisoned free space: free-listed blocks and untouched page
///     tails are poisoned.
///
/// Blocks larger than kMaxSmall (no size class) fall through to global
/// new/delete — they are rare (no steady-state allocation in this codebase
/// is that big) and tracking them per-block would cost more than it saves.
///
/// Not thread-safe, like the Simulation that owns it.
class Arena {
 public:
  /// Every block is aligned (and sized in multiples of) 16 bytes — enough
  /// for every type the kernel routes through the arena (static_asserted at
  /// the use sites).
  static constexpr std::size_t kAlign = 16;
  static constexpr std::size_t kPageBytes = 64 * 1024;
  /// Largest size served from pages/free lists (must divide kPageBytes).
  static constexpr std::size_t kMaxSmall = 8 * 1024;

  Arena();
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns a 16-aligned block of at least `size` bytes. Never null;
  /// page exhaustion throws std::bad_alloc like global new.
  void* Allocate(std::size_t size);

  /// Returns a block to its size-class free list. `size` must be the size
  /// passed to Allocate.
  void Deallocate(void* p, std::size_t size) noexcept;

  // --- Introspection (dump sections, tests) ------------------------------
  /// Total bytes of pages chained (the footprint; high-water, never shrinks
  /// until destruction).
  std::size_t bytes_reserved() const { return pages_.size() * kPageBytes; }
  /// Blocks currently allocated and not yet returned.
  std::size_t live_blocks() const { return live_blocks_; }
  /// Bytes currently allocated (rounded to size classes).
  std::size_t live_bytes() const { return live_bytes_; }
  /// Lifetime Allocate() count (passthrough and large blocks included).
  std::uint64_t total_allocations() const { return total_allocations_; }

  /// When true, this arena forwards every Allocate/Deallocate to global
  /// new/delete. Latched at construction from SetPassthroughForTest, so
  /// one arena is consistently arena-backed or consistently malloc-backed
  /// for its whole life. Exists for the arena-vs-malloc determinism pin;
  /// simulation behavior must not depend on it.
  bool passthrough() const { return passthrough_; }

  /// Makes arenas constructed from now on passthrough (test hook).
  static void SetPassthroughForTest(bool on);

 private:
  struct FreeBlock {
    FreeBlock* next;
  };

  static std::size_t ClassOf(std::size_t size) {
    return (size + kAlign - 1) / kAlign;  // 0 is unused (size 0 rounds to 1)
  }

  void* AllocateSmall(std::size_t rounded, std::size_t cls);
  void NewPage();

  std::vector<unsigned char*> pages_;  // pages_.back() is being bumped
  std::size_t cursor_ = 0;             // bump offset into the last page
  std::vector<FreeBlock*> free_lists_;  // index = size class
  std::size_t live_blocks_ = 0;
  std::size_t live_bytes_ = 0;
  std::uint64_t total_allocations_ = 0;
  bool passthrough_ = false;
};

/// Header prepended to blocks whose deallocation site cannot name the arena
/// (coroutine frames: operator delete receives only the pointer). One
/// kAlign-sized slot keeps the payload aligned.
struct ArenaBlockHeader {
  Arena* arena;  // null: block came from global new
  std::size_t size;  // total size including this header
};
static_assert(sizeof(ArenaBlockHeader) <= Arena::kAlign);

/// Allocates `size` payload bytes preceded by a routing header. Uses
/// `arena` when given (and not passthrough), else global new.
void* AllocateWithHeader(Arena* arena, std::size_t size);

/// Frees a block from AllocateWithHeader, routing by its header.
void DeallocateWithHeader(void* payload) noexcept;

/// Minimal STL allocator over an Arena, for co-locating shared_ptr control
/// blocks with their objects via std::allocate_shared (Completions,
/// Transactions). Comparison is by arena identity.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {
    CCSIM_CHECK(arena != nullptr);
  }
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= Arena::kAlign,
                  "over-aligned types cannot live in the arena");
    return static_cast<T*>(arena_->Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    arena_->Deallocate(p, n * sizeof(T));
  }

  Arena* arena() const noexcept { return arena_; }

  template <typename U>
  friend bool operator==(const ArenaAllocator& a,
                         const ArenaAllocator<U>& b) noexcept {
    return a.arena_ == b.arena();
  }

 private:
  Arena* arena_;
};

}  // namespace ccsim::sim

#endif  // CCSIM_SIM_ARENA_H_
