#include "ccsim/sim/event_fn.h"

#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "ccsim/sim/simulation.h"

namespace ccsim::sim {
namespace {

TEST(EventFn, DefaultIsEmpty) {
  EventFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(EventFn, InvokesSmallLambdaStoredInline) {
  int calls = 0;
  int* p = &calls;
  EventFn fn([p] { ++*p; });
  static_assert(EventFn::StoredInline<decltype([p] { ++*p; })>());
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(calls, 2);
}

TEST(EventFn, SimulatorHotHandlersFitInline) {
  // The shapes scheduled on the hot path: disk service completion (this +
  // shared_ptr + double), CPU message/PS events (this), 2PL timeout (this +
  // id + page + shared_ptr).
  struct FakePage {
    int file;
    int page;
  };
  void* self = nullptr;
  auto sp = std::make_shared<int>(0);
  double t = 0.0;
  std::uint64_t id = 0;
  FakePage pg{0, 0};
  auto disk_shape = [self, sp, t] { (void)self, (void)t; };
  auto timeout_shape = [self, id, pg, sp] { (void)self, (void)id, (void)pg; };
  static_assert(EventFn::StoredInline<decltype(disk_shape)>());
  static_assert(EventFn::StoredInline<decltype(timeout_shape)>());
  EXPECT_TRUE(EventFn::StoredInline<decltype([self] { (void)self; })>());
}

TEST(EventFn, LargeCapturesFallBackToHeapAndStillWork) {
  struct Big {
    double values[16];
  };
  Big big{};
  big.values[7] = 42.0;
  double got = 0.0;
  auto large = [big, &got] { got = big.values[7]; };
  static_assert(!EventFn::StoredInline<decltype(large)>());
  EventFn fn(large);
  fn();
  EXPECT_DOUBLE_EQ(got, 42.0);
}

TEST(EventFn, MoveTransfersTheCallable) {
  int calls = 0;
  int* p = &calls;
  EventFn a([p] { ++*p; });
  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EventFn c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(calls, 2);
}

class InstanceCounter {
 public:
  explicit InstanceCounter(int* count) : count_(count) { ++*count_; }
  InstanceCounter(const InstanceCounter& o) : count_(o.count_) { ++*count_; }
  InstanceCounter(InstanceCounter&& o) noexcept : count_(o.count_) {
    ++*count_;
  }
  ~InstanceCounter() { --*count_; }
  void operator()() const {}

 private:
  int* count_;
};

TEST(EventFn, DestroysInlineCallableExactlyOnce) {
  int instances = 0;
  {
    EventFn fn{InstanceCounter(&instances)};
    EXPECT_EQ(instances, 1);
    EventFn moved(std::move(fn));
    EXPECT_EQ(instances, 1);
    moved();
  }
  EXPECT_EQ(instances, 0);
}

TEST(EventFn, DestroysHeapCallableExactlyOnce) {
  struct PadTo64 {
    InstanceCounter counter;
    double pad[7];
    void operator()() const { counter(); }
  };
  static_assert(!EventFn::StoredInline<PadTo64>());
  int instances = 0;
  {
    EventFn fn{PadTo64{InstanceCounter(&instances), {}}};
    EXPECT_EQ(instances, 1);
    EventFn moved(std::move(fn));
    EXPECT_EQ(instances, 1);
    moved();
  }
  EXPECT_EQ(instances, 0);
}

TEST(EventFn, MoveAssignmentReleasesThePreviousCallable) {
  int a_live = 0, b_live = 0;
  EventFn fn{InstanceCounter(&a_live)};
  fn = EventFn{InstanceCounter(&b_live)};
  EXPECT_EQ(a_live, 0);
  EXPECT_EQ(b_live, 1);
  fn.Reset();
  EXPECT_EQ(b_live, 0);
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(EventFn, SharedPtrCaptureKeepsOwnershipAcrossMoves) {
  auto sp = std::make_shared<int>(5);
  std::weak_ptr<int> wp = sp;
  {
    EventFn fn([sp] { (void)*sp; });
    sp.reset();
    EXPECT_FALSE(wp.expired());
    EventFn moved(std::move(fn));
    moved();
    EXPECT_FALSE(wp.expired());
  }
  EXPECT_TRUE(wp.expired());
}

// --- SuspendedSet ------------------------------------------------------

struct TinyTask {
  struct promise_type {
    TinyTask get_return_object() {
      return TinyTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
  std::coroutine_handle<promise_type> handle;
};

TinyTask Nop() { co_return; }

class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 16;
  }

 private:
  std::uint64_t state_;
};

TEST(SuspendedSet, InsertEraseStressMatchesReferenceMapWithTokenReuse) {
  // Random suspend/resume traffic over a pool of real coroutine frames,
  // checked against a reference token -> frame map. Tokens must be reused
  // last-freed first, and the slab must stop growing at the high-water mark.
  std::vector<TinyTask> pool;
  pool.reserve(300);
  for (int i = 0; i < 300; ++i) pool.push_back(Nop());

  SuspendedSet set;
  std::map<SuspendedSet::Token, std::size_t> ref;  // token -> pool index
  std::vector<bool> registered(pool.size(), false);
  std::vector<SuspendedSet::Token> freed;  // reference LIFO free list
  std::size_t high_water = 0;
  int reused = 0;
  Lcg rng(7);
  for (int step = 0; step < 30000; ++step) {
    // Drift between a mostly-empty and a mostly-full registry so the slab
    // both grows and recycles.
    bool fill = (step / 2000) % 2 == 0;
    bool erase = fill ? rng.Next() % 3 == 0 : rng.Next() % 3 != 0;
    if (!ref.empty() && erase) {
      auto it = ref.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.Next() % ref.size()));
      set.Erase(it->first, pool[it->second].handle);
      registered[it->second] = false;
      freed.push_back(it->first);
      ref.erase(it);
    } else {
      std::size_t k = rng.Next() % pool.size();
      if (registered[k]) continue;
      SuspendedSet::Token t = set.Insert(pool[k].handle);
      if (freed.empty()) {
        EXPECT_EQ(t, high_water);  // a fresh cell at the end of the slab
        ++high_water;
      } else {
        EXPECT_EQ(t, freed.back());  // the last token freed
        freed.pop_back();
        ++reused;
      }
      ASSERT_TRUE(ref.emplace(t, k).second) << "token " << t << " issued twice";
      registered[k] = true;
    }
    ASSERT_EQ(set.size(), ref.size());
    ASSERT_EQ(set.capacity(), high_water);
  }
  EXPECT_GT(reused, 1000);
  // Drain: the survivors, in token order, are exactly the reference.
  std::vector<void*> want;
  for (const auto& [t, k] : ref) want.push_back(pool[k].handle.address());
  std::vector<void*> drained;
  for (auto h : set.TakeAll()) drained.push_back(h.address());
  EXPECT_EQ(drained, want);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.Insert(pool[0].handle), 0u);  // a drained slab starts over
  for (auto& task : pool) task.handle.destroy();
}

TEST(SuspendedSetDeathTest, StaleTokenOrMismatchedHandleIsFatal) {
  TinyTask a = Nop();
  TinyTask b = Nop();
  SuspendedSet set;
  SuspendedSet::Token ta = set.Insert(a.handle);
  SuspendedSet::Token tb = set.Insert(b.handle);
  EXPECT_DEATH(set.Erase(ta, b.handle), "not registered under its token");
  EXPECT_DEATH(set.Erase(tb + 1, b.handle), "not registered under its token");
  set.Erase(ta, a.handle);
  EXPECT_DEATH(set.Erase(ta, a.handle), "not registered under its token");
  EXPECT_EQ(set.size(), 1u);
  set.Erase(tb, b.handle);
  a.handle.destroy();
  b.handle.destroy();
}

}  // namespace
}  // namespace ccsim::sim
