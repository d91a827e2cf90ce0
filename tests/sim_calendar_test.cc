#include "ccsim/sim/calendar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <vector>

namespace ccsim::sim {
namespace {

// Fires one popped handler event (test helper; the Simulation owns dispatch
// of resume events).
void Fire(Calendar::Fired& fired) {
  ASSERT_EQ(fired.kind, EventKind::kHandler);
  fired.fn();
}

TEST(Calendar, StartsEmpty) {
  Calendar cal;
  EXPECT_TRUE(cal.empty());
  EXPECT_EQ(cal.size(), 0u);
  EXPECT_EQ(cal.NextTime(), kNever);
  Calendar::Fired fired;
  EXPECT_FALSE(cal.Pop(&fired));
}

TEST(Calendar, PopsInTimeOrder) {
  Calendar cal;
  std::vector<int> order;
  cal.Schedule(3.0, [&] { order.push_back(3); });
  cal.Schedule(1.0, [&] { order.push_back(1); });
  cal.Schedule(2.0, [&] { order.push_back(2); });
  Calendar::Fired fired;
  while (cal.Pop(&fired)) Fire(fired);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Calendar, TiesFireInInsertionOrder) {
  Calendar cal;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    cal.Schedule(5.0, [&order, i] { order.push_back(i); });
  }
  Calendar::Fired fired;
  while (cal.Pop(&fired)) Fire(fired);
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Calendar, TiesFireInInsertionOrderAcrossSlotReuse) {
  // Slot indices get recycled out of order; the insertion seq (not the slot
  // or the id) must drive tie-breaking.
  Calendar cal;
  std::vector<int> order;
  auto a = cal.Schedule(1.0, [] {});
  auto b = cal.Schedule(1.0, [] {});
  cal.Cancel(b);
  cal.Cancel(a);  // free list now holds slot(a) on top of slot(b)
  for (int i = 0; i < 4; ++i) {
    cal.Schedule(5.0, [&order, i] { order.push_back(i); });
  }
  Calendar::Fired fired;
  while (cal.Pop(&fired)) Fire(fired);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Calendar, NextTimeReportsEarliestPending) {
  Calendar cal;
  cal.Schedule(7.0, [] {});
  cal.Schedule(4.0, [] {});
  EXPECT_DOUBLE_EQ(cal.NextTime(), 4.0);
}

TEST(Calendar, CancelPreventsFiring) {
  Calendar cal;
  bool fired = false;
  auto id = cal.Schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(cal.Cancel(id));
  Calendar::Fired popped;
  EXPECT_FALSE(cal.Pop(&popped));
  EXPECT_FALSE(fired);
}

TEST(Calendar, CancelReturnsFalseForUnknownOrFiredEvent) {
  Calendar cal;
  auto id = cal.Schedule(1.0, [] {});
  Calendar::Fired fired;
  ASSERT_TRUE(cal.Pop(&fired));
  EXPECT_FALSE(cal.Cancel(id));
  EXPECT_FALSE(cal.Cancel(9999));
  EXPECT_FALSE(cal.Cancel(Calendar::kInvalidEventId));
}

TEST(Calendar, CancelTwiceReturnsFalse) {
  Calendar cal;
  auto id = cal.Schedule(1.0, [] {});
  EXPECT_TRUE(cal.Cancel(id));
  EXPECT_FALSE(cal.Cancel(id));
}

TEST(Calendar, CancelDoesNotDisturbOtherEvents) {
  Calendar cal;
  std::vector<int> order;
  cal.Schedule(1.0, [&] { order.push_back(1); });
  auto id = cal.Schedule(2.0, [&] { order.push_back(2); });
  cal.Schedule(3.0, [&] { order.push_back(3); });
  cal.Cancel(id);
  Calendar::Fired f;
  while (cal.Pop(&f)) Fire(f);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Calendar, SizeCountsOnlyLiveEvents) {
  Calendar cal;
  auto a = cal.Schedule(1.0, [] {});
  cal.Schedule(2.0, [] {});
  EXPECT_EQ(cal.size(), 2u);
  cal.Cancel(a);
  EXPECT_EQ(cal.size(), 1u);
}

TEST(Calendar, NextTimeSkipsCancelledHead) {
  Calendar cal;
  auto a = cal.Schedule(1.0, [] {});
  cal.Schedule(5.0, [] {});
  cal.Cancel(a);
  EXPECT_DOUBLE_EQ(cal.NextTime(), 5.0);
}

TEST(Calendar, RecycledSlotIdsDoNotAlias) {
  // Fire A; its slot is recycled for B. A's id must stay dead: cancelling it
  // returns false and must not kill B.
  Calendar cal;
  auto a = cal.Schedule(1.0, [] {});
  Calendar::Fired popped;
  ASSERT_TRUE(cal.Pop(&popped));
  bool b_fired = false;
  auto b = cal.Schedule(2.0, [&] { b_fired = true; });
  EXPECT_NE(a, b);  // same slot, different generation
  EXPECT_EQ(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b));
  EXPECT_FALSE(cal.Cancel(a));
  EXPECT_EQ(cal.size(), 1u);
  Calendar::Fired fired;
  ASSERT_TRUE(cal.Pop(&fired));
  Fire(fired);
  EXPECT_TRUE(b_fired);
}

TEST(Calendar, CancelledSlotIdsDoNotAlias) {
  // Same as above but the slot is recycled through a cancel, not a fire.
  Calendar cal;
  auto a = cal.Schedule(1.0, [] {});
  ASSERT_TRUE(cal.Cancel(a));
  auto b = cal.Schedule(2.0, [] {});
  EXPECT_EQ(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b));
  EXPECT_FALSE(cal.Cancel(a));
  EXPECT_TRUE(cal.Cancel(b));
  EXPECT_TRUE(cal.empty());
}

TEST(Calendar, NextTimeStableUnderInterleavedCancels) {
  // NextTime() is a pure read; interleaved cancels (including of the head)
  // must keep it equal to the earliest live event at every step.
  Calendar cal;
  std::vector<Calendar::EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(cal.Schedule(static_cast<double>(i), [] {}));
  }
  // Cancel the head repeatedly: each cancel must immediately expose the next
  // live event (head pruning is eager, NextTime never sees a dead head).
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(cal.Cancel(ids[static_cast<size_t>(i)]));
    EXPECT_DOUBLE_EQ(cal.NextTime(), static_cast<double>(i + 1));
    const Calendar& ccal = cal;  // NextTime on a const calendar
    EXPECT_DOUBLE_EQ(ccal.NextTime(), static_cast<double>(i + 1));
  }
  // Cancel interior events from the back; the head must be unaffected.
  for (int i = 63; i > 32; --i) {
    EXPECT_TRUE(cal.Cancel(ids[static_cast<size_t>(i)]));
    EXPECT_DOUBLE_EQ(cal.NextTime(), 32.0);
  }
  EXPECT_TRUE(cal.Cancel(ids[32]));
  EXPECT_EQ(cal.NextTime(), kNever);
  EXPECT_TRUE(cal.empty());
}

TEST(Calendar, SlotCapacityTracksHighWaterMarkOnly) {
  Calendar cal;
  std::vector<Calendar::EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(cal.Schedule(1.0 + i, [] {}));
  }
  std::size_t cap = cal.slot_capacity();
  EXPECT_EQ(cap, 100u);
  // Steady-state churn at depth <= 100 must not grow the slab.
  for (int round = 0; round < 50; ++round) {
    Calendar::Fired fired;
    ASSERT_TRUE(cal.Pop(&fired));
    cal.Schedule(fired.time + 1000.0, [] {});
  }
  EXPECT_EQ(cal.slot_capacity(), cap);
}

// Deterministic 64-bit LCG for the stress test (no std random; determinism
// rules ban wall-clock/rand seeding in tests).
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

// A dense schedule: 1,024 events pending at all times, each fired event
// replaced by one up to 2 s later, so events fire about a millisecond apart
// while the bottom rung, shaped from the initial 1 s gap, has 1 s buckets.
// Every bottom-rung bucket the run reaches fills with hundreds of events
// and splits. The storage the buckets keep must stay within a bound set by
// the pending count, however long the run: sampled once per simulated
// second from 100 s to 400 s.
TEST(Calendar, DenseScheduleRetainsBucketStorageBoundedByPending) {
  constexpr std::size_t kPending = 1024;
  Calendar cal;
  Lcg rng(20261018);
  auto hold = [&rng] {
    return static_cast<double>(rng.Next() % (1u << 20)) / (1u << 19);
  };
  for (std::size_t i = 0; i < kPending; ++i) cal.Schedule(hold(), [] {});
  double next_sample = 100.0;
  std::size_t first = 0;
  std::size_t peak = 0;
  while (next_sample <= 400.0) {
    Calendar::Fired fired;
    ASSERT_TRUE(cal.Pop(&fired));
    if (fired.time >= next_sample) {
      const std::size_t retained = cal.bucket_capacity();
      if (first == 0) first = retained;
      peak = std::max(peak, retained);
      next_sample += 1.0;
    }
    cal.Schedule(fired.time + hold(), [] {});
  }
  EXPECT_EQ(cal.size(), kPending);
  EXPECT_GT(first, 0u);
  EXPECT_LE(peak, 4 * kPending) << "retained at 100 s: " << first;
}

// Cancel-heavy randomized stress against a naive reference model: a flat
// vector of pending (time, seq) records popped via linear min-scan. Any
// divergence in pop order, cancel results, or sizes fails.
TEST(Calendar, StressMatchesNaiveReferenceModel) {
  struct RefEvent {
    double time;
    std::uint64_t seq;
    int payload;
  };
  Calendar cal;
  std::vector<std::pair<Calendar::EventId, std::uint64_t>> live_ids;
  std::vector<RefEvent> ref;
  std::vector<Calendar::EventId> dead_ids;
  Lcg rng(20260806);
  std::uint64_t next_seq = 0;
  double now = 0.0;
  std::vector<int> got, want;
  for (int step = 0; step < 20000; ++step) {
    std::uint64_t r = rng.Next() % 100;
    if (r < 45 || ref.empty()) {
      // Schedule at now + U[0,16), quantized so exact ties happen often.
      double t = now + static_cast<double>(rng.Next() % 64) / 4.0;
      int payload = static_cast<int>(next_seq);
      auto id = cal.Schedule(t, [&got, payload] { got.push_back(payload); });
      live_ids.emplace_back(id, next_seq);
      ref.push_back(RefEvent{t, next_seq, payload});
      ++next_seq;
    } else if (r < 75) {
      // Cancel a random live event; both models must agree it was live.
      std::size_t k = rng.Next() % live_ids.size();
      auto [id, seq] = live_ids[k];
      EXPECT_TRUE(cal.Cancel(id));
      auto it = std::find_if(ref.begin(), ref.end(),
                             [s = seq](const RefEvent& e) { return e.seq == s; });
      ASSERT_NE(it, ref.end());
      ref.erase(it);
      live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(k));
      dead_ids.push_back(id);
    } else if (r < 85 && !dead_ids.empty()) {
      // Cancel of a dead id must always be rejected.
      EXPECT_FALSE(cal.Cancel(dead_ids[rng.Next() % dead_ids.size()]));
    } else {
      // Pop: earliest (time, seq) in the reference.
      auto it = std::min_element(ref.begin(), ref.end(),
                                 [](const RefEvent& a, const RefEvent& b) {
                                   if (a.time != b.time) return a.time < b.time;
                                   return a.seq < b.seq;
                                 });
      Calendar::Fired fired;
      ASSERT_TRUE(cal.Pop(&fired));
      ASSERT_EQ(fired.kind, EventKind::kHandler);
      fired.fn();
      want.push_back(it->payload);
      EXPECT_DOUBLE_EQ(fired.time, it->time);
      now = it->time;
      auto lit = std::find_if(
          live_ids.begin(), live_ids.end(),
          [s = it->seq](const auto& p) { return p.second == s; });
      ASSERT_NE(lit, live_ids.end());
      dead_ids.push_back(lit->first);
      live_ids.erase(lit);
      ref.erase(it);
    }
    ASSERT_EQ(cal.size(), ref.size());
    double ref_next = kNever;
    for (const RefEvent& e : ref) ref_next = std::min(ref_next, e.time);
    ASSERT_EQ(cal.NextTime(), ref_next);
  }
  // Drain the rest and compare the full firing orders.
  Calendar::Fired fired;
  while (cal.Pop(&fired)) {
    ASSERT_EQ(fired.kind, EventKind::kHandler);
    fired.fn();
  }
  std::sort(ref.begin(), ref.end(), [](const RefEvent& a, const RefEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  });
  for (const RefEvent& e : ref) want.push_back(e.payload);
  EXPECT_EQ(got, want);
}

// Same reference-model stress, but with event times drawn from wildly
// different scales (sub-second ties, thousands, and ~1e9 far-future
// clusters). This drives the ladder internals the uniform stress cannot
// reach: overflow spills, rebases of far clusters, under-rungs opened for
// near events scheduled after a rebase, and bucket splits of time clumps.
TEST(Calendar, StressWideTimeSpansMatchReference) {
  struct RefEvent {
    double time;
    std::uint64_t seq;
    int payload;
  };
  Calendar cal;
  std::vector<std::pair<Calendar::EventId, std::uint64_t>> live_ids;
  std::vector<RefEvent> ref;
  Lcg rng(891236);
  std::uint64_t next_seq = 0;
  double now = 0.0;
  std::vector<int> got, want;
  for (int step = 0; step < 12000; ++step) {
    std::uint64_t r = rng.Next() % 100;
    if (r < 50 || ref.empty()) {
      double off;
      std::uint64_t scale = rng.Next() % 10;
      if (scale < 5) {
        off = static_cast<double>(rng.Next() % 16) / 8.0;  // ties + clumps
      } else if (scale < 8) {
        off = static_cast<double>(rng.Next() % 4096);
      } else {
        off = 1e9 + static_cast<double>(rng.Next() % 64);  // far cluster
      }
      double t = now + off;
      int payload = static_cast<int>(next_seq);
      auto id = cal.Schedule(t, [&got, payload] { got.push_back(payload); });
      live_ids.emplace_back(id, next_seq);
      ref.push_back(RefEvent{t, next_seq, payload});
      ++next_seq;
    } else if (r < 70) {
      std::size_t k = rng.Next() % live_ids.size();
      auto [id, seq] = live_ids[k];
      EXPECT_TRUE(cal.Cancel(id));
      auto it =
          std::find_if(ref.begin(), ref.end(),
                       [s = seq](const RefEvent& e) { return e.seq == s; });
      ASSERT_NE(it, ref.end());
      ref.erase(it);
      live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      auto it = std::min_element(ref.begin(), ref.end(),
                                 [](const RefEvent& a, const RefEvent& b) {
                                   if (a.time != b.time) return a.time < b.time;
                                   return a.seq < b.seq;
                                 });
      Calendar::Fired fired;
      ASSERT_TRUE(cal.Pop(&fired));
      fired.fn();
      want.push_back(it->payload);
      EXPECT_DOUBLE_EQ(fired.time, it->time);
      now = it->time;
      auto lit = std::find_if(
          live_ids.begin(), live_ids.end(),
          [s = it->seq](const auto& p) { return p.second == s; });
      ASSERT_NE(lit, live_ids.end());
      live_ids.erase(lit);
      ref.erase(it);
    }
    ASSERT_EQ(cal.size(), ref.size());
    double ref_next = kNever;
    for (const RefEvent& e : ref) ref_next = std::min(ref_next, e.time);
    ASSERT_EQ(cal.NextTime(), ref_next);
  }
  Calendar::Fired fired;
  while (cal.Pop(&fired)) fired.fn();
  std::sort(ref.begin(), ref.end(), [](const RefEvent& a, const RefEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  });
  for (const RefEvent& e : ref) want.push_back(e.payload);
  EXPECT_EQ(got, want);
}

// --- Resume (wakeup) events -------------------------------------------

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

TinyTask MarkWhenResumed(bool* resumed) {
  *resumed = true;
  co_return;
}

TEST(Calendar, ResumeEventsCarryTheHandle) {
  Calendar cal;
  bool resumed = false;
  TinyTask task = MarkWhenResumed(&resumed);
  cal.Schedule(1.0, [] {});
  cal.ScheduleResume(0.5, task.handle, /*token=*/7);
  Calendar::Fired first;
  ASSERT_TRUE(cal.Pop(&first));
  EXPECT_EQ(first.kind, EventKind::kResume);
  EXPECT_FALSE(static_cast<bool>(first.fn));
  EXPECT_EQ(first.token, 7u);
  ASSERT_NE(first.resume, nullptr);
  first.resume.resume();
  EXPECT_TRUE(resumed);
  Calendar::Fired second;
  ASSERT_TRUE(cal.Pop(&second));
  EXPECT_EQ(second.kind, EventKind::kHandler);
  task.handle.destroy();
}

TinyTask Idle() { co_return; }

// The cancel/pop stress with a third operation: a wakeup at the last popped
// time, which takes the same-time lane. The reference model keeps treating
// it as an ordinary (now, seq) event. Handler times stay quantized and often
// land exactly on `now`, so lane entries tie with ladder events (and with
// cancelled ladder heads) all the time.
TEST(Calendar, StressWithSameTimeResumesMatchesReference) {
  struct RefEvent {
    double time;
    std::uint64_t seq;
    int payload;
    std::coroutine_handle<> frame;  // set for a wakeup
  };
  std::vector<TinyTask> frames;
  for (int i = 0; i < 16; ++i) frames.push_back(Idle());
  Calendar cal;
  std::vector<std::pair<Calendar::EventId, std::uint64_t>> live_ids;
  std::vector<RefEvent> ref;
  Lcg rng(20261017);
  std::uint64_t next_seq = 0;
  double now = 0.0;
  std::vector<int> got, want;
  int lane_pops = 0;
  int handler_pops_over_lane = 0;  // a tied handler beat a waiting lane
  for (int step = 0; step < 20000; ++step) {
    std::uint64_t r = rng.Next() % 100;
    int payload = static_cast<int>(next_seq);
    if (r < 28 || ref.empty()) {
      double t = rng.Next() % 4 == 0
                     ? now
                     : now + static_cast<double>(rng.Next() % 32) / 4.0;
      auto id = cal.Schedule(t, [&got, payload] { got.push_back(payload); });
      live_ids.emplace_back(id, next_seq);
      ref.push_back(RefEvent{t, next_seq++, payload, nullptr});
    } else if (r < 50) {
      const TinyTask& frame = frames[rng.Next() % frames.size()];
      cal.ScheduleResume(now, frame.handle,
                         static_cast<std::uint32_t>(payload));
      ref.push_back(RefEvent{now, next_seq++, payload, frame.handle});
    } else if (r < 60 && !live_ids.empty()) {
      std::size_t k = rng.Next() % live_ids.size();
      auto [id, seq] = live_ids[k];
      EXPECT_TRUE(cal.Cancel(id));
      auto it = std::find_if(ref.begin(), ref.end(),
                             [s = seq](const RefEvent& e) { return e.seq == s; });
      ASSERT_NE(it, ref.end());
      ref.erase(it);
      live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      auto it = std::min_element(ref.begin(), ref.end(),
                                 [](const RefEvent& a, const RefEvent& b) {
                                   if (a.time != b.time) return a.time < b.time;
                                   return a.seq < b.seq;
                                 });
      bool lane_waiting = cal.lane_size() > 0;
      Calendar::Fired fired;
      ASSERT_TRUE(cal.Pop(&fired));
      EXPECT_DOUBLE_EQ(fired.time, it->time);
      if (it->frame != nullptr) {
        ASSERT_EQ(fired.kind, EventKind::kResume);
        EXPECT_EQ(fired.resume, it->frame);
        got.push_back(static_cast<int>(fired.token));
        ++lane_pops;
      } else {
        ASSERT_EQ(fired.kind, EventKind::kHandler);
        if (lane_waiting) ++handler_pops_over_lane;
        fired.fn();
        auto lit = std::find_if(
            live_ids.begin(), live_ids.end(),
            [s = it->seq](const auto& p) { return p.second == s; });
        ASSERT_NE(lit, live_ids.end());
        live_ids.erase(lit);
      }
      want.push_back(it->payload);
      now = it->time;
      ref.erase(it);
    }
    ASSERT_EQ(cal.size(), ref.size());
    double ref_next = kNever;
    for (const RefEvent& e : ref) ref_next = std::min(ref_next, e.time);
    ASSERT_EQ(cal.NextTime(), ref_next);
  }
  Calendar::Fired fired;
  while (cal.Pop(&fired)) {
    if (fired.kind == EventKind::kResume) {
      got.push_back(static_cast<int>(fired.token));
    } else {
      fired.fn();
    }
  }
  std::sort(ref.begin(), ref.end(), [](const RefEvent& a, const RefEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  });
  for (const RefEvent& e : ref) want.push_back(e.payload);
  EXPECT_EQ(got, want);
  // The schedule must reach the merge cases, or the comparison proves little.
  EXPECT_GT(lane_pops, 1000);
  EXPECT_GT(handler_pops_over_lane, 100);
  for (TinyTask& frame : frames) frame.handle.destroy();
}

// The bottom list against the reference model, with every pop, size and
// NextTime() compared: bursts scheduled at or before the ladder's earliest
// time, so they insert into the list until it spills into a child rung;
// more ties at one time than the list spills at, which cannot spill and
// must pop in seq order; cancels of the front, including of the last live
// event while cancelled entries sit in rungs and in overflow, followed by
// new schedules; and same-time resumes throughout.
TEST(Calendar, StressBottomListMatchesReference) {
  struct RefEvent {
    double time;
    std::uint64_t seq;
    int payload;
    Calendar::EventId id;           // kInvalidEventId for a wakeup
    std::coroutine_handle<> frame;  // set for a wakeup
  };
  std::vector<TinyTask> frames;
  for (int i = 0; i < 4; ++i) frames.push_back(Idle());
  Calendar cal;
  std::vector<RefEvent> ref;
  std::vector<int> got;
  Lcg rng(20261020);
  std::uint64_t next_seq = 0;
  double now = 0.0;
  auto before = [](const RefEvent& a, const RefEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  };
  // The earliest ladder (non-wakeup) event's time, or kNever.
  auto ladder_min = [&] {
    double t = kNever;
    for (const RefEvent& e : ref) {
      if (e.frame == nullptr) t = std::min(t, e.time);
    }
    return t;
  };
  auto check = [&] {
    ASSERT_EQ(cal.size(), ref.size());
    double want = kNever;
    for (const RefEvent& e : ref) want = std::min(want, e.time);
    ASSERT_EQ(cal.NextTime(), want);
  };
  auto schedule = [&](double t) {
    int payload = static_cast<int>(next_seq);
    auto id = cal.Schedule(t, [&got, payload] { got.push_back(payload); });
    ref.push_back(RefEvent{t, next_seq++, payload, id, nullptr});
    check();
  };
  auto resume = [&] {
    int payload = static_cast<int>(next_seq);
    std::coroutine_handle<> frame = frames[rng.Next() % frames.size()].handle;
    cal.ScheduleResume(now, frame, static_cast<std::uint32_t>(payload));
    ref.push_back(RefEvent{now, next_seq++, payload,
                           Calendar::kInvalidEventId, frame});
    check();
  };
  auto cancel = [&](std::size_t k) {
    ASSERT_TRUE(cal.Cancel(ref[k].id));
    ASSERT_FALSE(cal.Cancel(ref[k].id));
    ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(k));
    check();
  };
  // Cancels the earliest ladder event; false if there is none.
  auto cancel_front = [&] {
    std::size_t best = ref.size();
    for (std::size_t k = 0; k < ref.size(); ++k) {
      if (ref[k].frame == nullptr &&
          (best == ref.size() || before(ref[k], ref[best]))) {
        best = k;
      }
    }
    if (best == ref.size()) return false;
    cancel(best);
    return true;
  };
  Calendar::Fired fired;
  auto pop = [&] {
    auto it = std::min_element(ref.begin(), ref.end(), before);
    ASSERT_TRUE(cal.Pop(&fired));
    ASSERT_EQ(fired.time, it->time);
    if (it->frame != nullptr) {
      ASSERT_EQ(fired.kind, EventKind::kResume);
      ASSERT_EQ(fired.resume, it->frame);
      ASSERT_EQ(fired.token, static_cast<std::uint32_t>(it->payload));
    } else {
      ASSERT_EQ(fired.kind, EventKind::kHandler);
      fired.fn();
      ASSERT_EQ(got.back(), it->payload);
    }
    now = it->time;
    ref.erase(it);
    check();
  };
  auto drain = [&] {
    while (!ref.empty()) ASSERT_NO_FATAL_FAILURE(pop());
    ASSERT_FALSE(cal.Pop(&fired));
  };
  int tie_runs = 0;   // runs of > 32 ties scheduled into an empty calendar
  int front_cuts = 0; // last live event cancelled over dead rung entries
  for (int round = 0; round < 400; ++round) {
    switch (rng.Next() % 6) {
      case 0: {
        // A burst at or before the ladder's earliest time: every event
        // goes into the bottom list, which spills past 32 pending.
        double front = ladder_min();
        if (front == kNever) front = now + 1.0;
        int n = 40 + static_cast<int>(rng.Next() % 60);
        for (int i = 0; i < n; ++i) {
          double t = now + (front - now) *
                               static_cast<double>(rng.Next() % 65) / 64.0;
          ASSERT_NO_FATAL_FAILURE(schedule(t));
          if (rng.Next() % 8 == 0) {
            ASSERT_NO_FATAL_FAILURE(resume());
          }
        }
        break;
      }
      case 1: {
        // Ties past the spill bound: into an empty calendar, so all of them
        // sit in the bottom list, or over pending events.
        if (rng.Next() % 2 == 0) {
          ASSERT_NO_FATAL_FAILURE(drain());
          ++tie_runs;
        }
        double t = now + static_cast<double>(rng.Next() % 4) / 4.0;
        int n = 33 + static_cast<int>(rng.Next() % 40);
        for (int i = 0; i < n; ++i) ASSERT_NO_FATAL_FAILURE(schedule(t));
        break;
      }
      case 2: {
        int n = 1 + static_cast<int>(rng.Next() % 4);
        for (int i = 0; i < n; ++i) {
          bool cancelled = false;
          ASSERT_NO_FATAL_FAILURE(cancelled = cancel_front());
          if (!cancelled) break;
        }
        break;
      }
      case 3: {
        // Cancelled entries in rungs and in overflow under one live event,
        // which is then cancelled; then the calendar is used again.
        ASSERT_NO_FATAL_FAILURE(drain());
        ASSERT_NO_FATAL_FAILURE(schedule(now + 0.5));
        std::size_t first_dead = ref.size();
        for (int i = 0; i < 20; ++i) {
          ASSERT_NO_FATAL_FAILURE(
              schedule(now + 1.0 + static_cast<double>(rng.Next() % 64)));
          ASSERT_NO_FATAL_FAILURE(
              schedule(now + 1e9 + static_cast<double>(rng.Next() % 64)));
        }
        while (ref.size() > first_dead) {
          ASSERT_NO_FATAL_FAILURE(cancel(ref.size() - 1));
        }
        ASSERT_NO_FATAL_FAILURE(cancel(0));
        ASSERT_TRUE(cal.empty());
        ++front_cuts;
        for (int i = 0; i < 3; ++i) {
          ASSERT_NO_FATAL_FAILURE(
              schedule(now + static_cast<double>(rng.Next() % 8) / 8.0));
        }
        break;
      }
      case 4: {
        int n = 1 + static_cast<int>(rng.Next() % 4);
        for (int i = 0; i < n; ++i) ASSERT_NO_FATAL_FAILURE(resume());
        if (rng.Next() % 2 == 0) {
          ASSERT_NO_FATAL_FAILURE(schedule(now));
        }
        break;
      }
      default: {
        int n = 1 + static_cast<int>(rng.Next() % 40);
        for (int i = 0; i < n && !ref.empty(); ++i) {
          ASSERT_NO_FATAL_FAILURE(pop());
          if (rng.Next() % 4 == 0) {
            ASSERT_NO_FATAL_FAILURE(resume());
          }
        }
        break;
      }
    }
  }
  ASSERT_NO_FATAL_FAILURE(drain());
  EXPECT_GT(tie_runs, 10);
  EXPECT_GT(front_cuts, 10);
  for (TinyTask& frame : frames) frame.handle.destroy();
}

TEST(CalendarDeathTest, RejectsNanTime) {
  Calendar cal;
  EXPECT_DEATH(cal.Schedule(std::nan(""), [] {}), "NaN");
}

TEST(CalendarDeathTest, RejectsInfiniteTime) {
  Calendar cal;
  EXPECT_DEATH(cal.Schedule(kNever, [] {}), "infinite");
}

TEST(CalendarDeathTest, RejectsEmptyHandler) {
  Calendar cal;
  EXPECT_DEATH(cal.Schedule(1.0, EventFn()), "empty handler");
}

TEST(CalendarDeathTest, RejectsSchedulingBeforeLastFiredEvent) {
  Calendar cal;
  cal.Schedule(5.0, [] {});
  Calendar::Fired fired;
  ASSERT_TRUE(cal.Pop(&fired));
  EXPECT_DEATH(cal.Schedule(1.0, [] {}), "simulated past");
}

}  // namespace
}  // namespace ccsim::sim
