#include "ccsim/sim/arena.h"

#include <cstring>

#if CCSIM_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#define CCSIM_ARENA_POISON(addr, size) ASAN_POISON_MEMORY_REGION(addr, size)
#define CCSIM_ARENA_UNPOISON(addr, size) \
  ASAN_UNPOISON_MEMORY_REGION(addr, size)
#else
#define CCSIM_ARENA_POISON(addr, size) ((void)(addr), (void)(size))
#define CCSIM_ARENA_UNPOISON(addr, size) ((void)(addr), (void)(size))
#endif

namespace ccsim::sim {

namespace {
bool g_passthrough_for_test = false;
}  // namespace

void Arena::SetPassthroughForTest(bool on) { g_passthrough_for_test = on; }

Arena::Arena()
    : free_lists_(kMaxSmall / kAlign + 1, nullptr),
      passthrough_(g_passthrough_for_test) {}

Arena::~Arena() {
  for (unsigned char* page : pages_) {
    CCSIM_ARENA_UNPOISON(page, kPageBytes);
    ::operator delete(page, std::align_val_t{kAlign});
  }
}

void Arena::NewPage() {
  auto* page = static_cast<unsigned char*>(
      ::operator new(kPageBytes, std::align_val_t{kAlign}));
  CCSIM_ARENA_POISON(page, kPageBytes);
  pages_.push_back(page);
  cursor_ = 0;
}

void* Arena::AllocateSmall(std::size_t rounded, std::size_t cls) {
  FreeBlock*& head = free_lists_[cls];
  if (head != nullptr) {
    FreeBlock* block = head;
    // Unpoison before touching the embedded link: freed blocks are fully
    // poisoned, including the link word.
    CCSIM_ARENA_UNPOISON(block, rounded);
    head = block->next;
    return block;
  }
  if (pages_.empty() || cursor_ + rounded > kPageBytes) {
    // The page tail (< kMaxSmall) is abandoned, not free-listed: with 64 KiB
    // pages the waste is bounded by ~12% worst case and the bookkeeping
    // stays trivial. `pages_.empty()` makes the first allocation lazy so an
    // unused Simulation costs no pages.
    NewPage();
  }
  unsigned char* p = pages_.back() + cursor_;
  cursor_ += rounded;
  CCSIM_ARENA_UNPOISON(p, rounded);
  return p;
}

void* Arena::Allocate(std::size_t size) {
  ++total_allocations_;
  if (passthrough_) return ::operator new(size);
  std::size_t cls = ClassOf(size);
  std::size_t rounded = cls * kAlign;
  if (rounded > kMaxSmall) return ::operator new(size);
  ++live_blocks_;
  live_bytes_ += rounded;
  return AllocateSmall(rounded, cls);
}

void Arena::Deallocate(void* p, std::size_t size) noexcept {
  if (passthrough_) {
    ::operator delete(p);
    return;
  }
  std::size_t cls = ClassOf(size);
  std::size_t rounded = cls * kAlign;
  if (rounded > kMaxSmall) {
    ::operator delete(p);
    return;
  }
  CCSIM_CHECK(live_blocks_ > 0);
  --live_blocks_;
  live_bytes_ -= rounded;
  auto* block = static_cast<FreeBlock*>(p);
  block->next = free_lists_[cls];
  free_lists_[cls] = block;
  // Poison the whole block, embedded free-list link included — the next
  // Allocate of this class unpoisons before reading it. Byte 0 of a freed
  // block must trap like any other byte.
  CCSIM_ARENA_POISON(p, rounded);
}

void* AllocateWithHeader(Arena* arena, std::size_t size) {
  std::size_t total = size + Arena::kAlign;
  ArenaBlockHeader header{arena, total};
  void* raw;
  if (arena != nullptr && !arena->passthrough() && total <= Arena::kMaxSmall) {
    raw = arena->Allocate(total);
  } else {
    raw = ::operator new(total);
    header.arena = nullptr;
  }
  std::memcpy(raw, &header, sizeof(header));
  return static_cast<unsigned char*>(raw) + Arena::kAlign;
}

void DeallocateWithHeader(void* payload) noexcept {
  if (payload == nullptr) return;
  void* raw = static_cast<unsigned char*>(payload) - Arena::kAlign;
  ArenaBlockHeader header;
  std::memcpy(&header, raw, sizeof(header));
  if (header.arena != nullptr) {
    header.arena->Deallocate(raw, header.size);
  } else {
    ::operator delete(raw);
  }
}

}  // namespace ccsim::sim
