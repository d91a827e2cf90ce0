// Arena allocator: the per-simulation bump/free-list allocator behind
// coroutine frames, Completions, and Transaction state (DESIGN.md decision
// #12). Covers the allocator contract (alignment, size-class reuse,
// large-block bypass), the ASan poisoning of freed space, teardown of
// suspended coroutine frames through the registry (leak-checked by the ASan
// CI job), and the load-bearing pin that arena-vs-malloc placement does not
// change simulation behavior.

#include "ccsim/sim/arena.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "ccsim/config/params.h"
#include "ccsim/engine/run.h"
#include "ccsim/sim/process.h"
#include "ccsim/sim/simulation.h"
#include "test_util.h"

namespace ccsim {
namespace {

TEST(Arena, AlignsEveryBlockAndTracksLiveness) {
  sim::Arena arena;
  std::vector<std::pair<void*, std::size_t>> blocks;
  for (std::size_t size : {std::size_t{1}, std::size_t{8}, std::size_t{16},
                           std::size_t{17}, std::size_t{40}, std::size_t{256},
                           std::size_t{1000}}) {
    void* p = arena.Allocate(size);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % sim::Arena::kAlign, 0u)
        << "size " << size;
    std::memset(p, 0xAB, size);  // the whole block must be writable
    blocks.emplace_back(p, size);
  }
  EXPECT_EQ(arena.live_blocks(), blocks.size());
  for (auto [p, size] : blocks) arena.Deallocate(p, size);
  EXPECT_EQ(arena.live_blocks(), 0u);
  EXPECT_EQ(arena.live_bytes(), 0u);
}

TEST(Arena, ReusesFreedBlocksWithoutGrowingFootprint) {
  sim::Arena arena;
  void* first = arena.Allocate(64);
  arena.Deallocate(first, 64);
  // The size-class free list is LIFO: the same block comes straight back.
  void* again = arena.Allocate(64);
  EXPECT_EQ(first, again);
  arena.Deallocate(again, 64);

  // A million churn cycles at steady state must not reserve a single
  // additional page - this is the property that keeps megascale runs at the
  // high-water mark instead of growing with total allocation count.
  std::size_t footprint = arena.bytes_reserved();
  for (int i = 0; i < 1000000; ++i) {
    void* p = arena.Allocate(64);
    arena.Deallocate(p, 64);
  }
  EXPECT_EQ(arena.bytes_reserved(), footprint);
  EXPECT_EQ(arena.live_blocks(), 0u);
}

TEST(Arena, LargeBlocksBypassThePages) {
  sim::Arena arena;
  std::size_t size = sim::Arena::kMaxSmall + 1;
  void* p = arena.Allocate(size);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5A, size);
  arena.Deallocate(p, size);
  EXPECT_EQ(arena.live_blocks(), 0u);
}

TEST(Arena, HeaderRoutingFreesToTheRightPlace) {
  sim::Arena arena;
  // Arena-backed block: the header must route the free back to the arena.
  void* p = sim::AllocateWithHeader(&arena, 48);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % sim::Arena::kAlign, 0u);
  EXPECT_EQ(arena.live_blocks(), 1u);
  sim::DeallocateWithHeader(p);
  EXPECT_EQ(arena.live_blocks(), 0u);
  // Null arena: global new, and the free must not touch any arena.
  void* q = sim::AllocateWithHeader(nullptr, 48);
  std::memset(q, 0xCD, 48);
  sim::DeallocateWithHeader(q);
  EXPECT_EQ(arena.live_blocks(), 0u);
}

#if CCSIM_ARENA_ASAN
// Freed arena blocks are manually poisoned: a stale pointer dereference
// aborts under ASan exactly as a malloc use-after-free would.
TEST(ArenaDeathTest, UseAfterDeallocateIsPoisoned) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::Arena arena;
        int* p = static_cast<int*>(arena.Allocate(sizeof(int)));
        *p = 42;
        arena.Deallocate(p, sizeof(int));
        *static_cast<volatile int*>(p) = 43;
      },
      "use-after-poison");
}

#endif  // CCSIM_ARENA_ASAN

// A process owner whose coroutine frames come from the simulation arena
// (the ProcessArenaOwner path every service in the codebase uses).
struct DelayOwner {
  sim::Simulation* sim;
  sim::Arena* process_arena() { return sim->arena(); }
  sim::Process Sleep(double first, double second) {
    co_await sim->Delay(first);
    co_await sim->Delay(second);
  }
};

TEST(Arena, SuspendedFramesAreRegisteredAndDestroyedWithTheSimulation) {
  auto sim = std::make_unique<sim::Simulation>();
  DelayOwner owner{sim.get()};
  owner.Sleep(1.0, 1e9);
  // Ran eagerly to the first Delay: suspended, frame live in the arena.
  EXPECT_EQ(sim->suspended_processes(), 1u);
  EXPECT_GT(sim->arena()->live_blocks(), 0u);
  sim->RunUntil(10.0);
  // Woke at t=1, suspended again on the far Delay; still registered.
  EXPECT_EQ(sim->suspended_processes(), 1u);
  // Destroying the Simulation destroys the suspended frame through the
  // registry before the arena goes away. The ASan job turns a missed
  // destroy into a leak report, and a double-destroy into a crash.
  sim.reset();
}

// The pin behind the whole subsystem: where memory comes from must not
// change what the simulation computes. One contended run arena-backed and
// one with every arena in malloc-passthrough mode must agree bit-for-bit on
// every metric. (Passthrough is latched per-arena at construction, so the
// toggle cannot leak into other tests' simulations mid-life.)
TEST(ArenaDeterminism, PassthroughRunIsBitIdentical) {
  auto cfg = test::SmallConfig(config::CcAlgorithm::kTwoPhaseLocking,
                               /*think_time=*/1.0);
  engine::RunResult arena_run = engine::RunSimulation(cfg);
  sim::Arena::SetPassthroughForTest(true);
  engine::RunResult malloc_run = engine::RunSimulation(cfg);
  sim::Arena::SetPassthroughForTest(false);

  EXPECT_EQ(arena_run.commits, malloc_run.commits);
  EXPECT_EQ(arena_run.aborts, malloc_run.aborts);
  EXPECT_EQ(arena_run.events, malloc_run.events);
  EXPECT_EQ(arena_run.aborts_local_deadlock, malloc_run.aborts_local_deadlock);
  EXPECT_EQ(arena_run.aborts_global_deadlock,
            malloc_run.aborts_global_deadlock);
  EXPECT_EQ(arena_run.throughput, malloc_run.throughput);
  EXPECT_EQ(arena_run.mean_response_time, malloc_run.mean_response_time);
  EXPECT_EQ(arena_run.rt_p99, malloc_run.rt_p99);
  EXPECT_EQ(arena_run.serializable, malloc_run.serializable);
}

}  // namespace
}  // namespace ccsim
