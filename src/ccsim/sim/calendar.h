#ifndef CCSIM_SIM_CALENDAR_H_
#define CCSIM_SIM_CALENDAR_H_

#include <coroutine>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "ccsim/sim/check.h"
#include "ccsim/sim/event_fn.h"
#include "ccsim/sim/time.h"

namespace ccsim::sim {

/// What a calendar event does when it fires.
enum class EventKind : std::uint8_t {
  kHandler,  // invoke an EventFn
  kResume,   // resume a suspended coroutine (a process wakeup)
};

/// The event calendar: a pending-event set ordered by (time, insertion seq).
///
/// Ties at the same simulated time fire in insertion order, which makes runs
/// fully deterministic for a given seed.
///
/// Storage is a generation-tagged slot slab: every pending event lives in a
/// pre-allocated `Slot` recycled through a free list, and an `EventId` is the
/// slot index tagged with the slot's generation. Cancel/fire bump the
/// generation, so a stale id (cancel after fire, cancel after cancel) is
/// rejected by a single array lookup — no hash table, and steady-state
/// operation performs no allocation at all (the slab, buckets, and rung
/// structures grow to their high-water marks and are then reused). Schedule
/// constructs a handler in its slot, and Pop moves it once, into the
/// caller's Fired record.
///
/// The pending set itself is a ladder of time-bucketed rungs (a calendar
/// queue in the Brown / ladder-queue tradition) rather than a comparison
/// heap: events are scattered into buckets by time, and oversized buckets
/// split into finer child rungs on demand. The earliest bucket is copied
/// into the bottom list (the ladder queue's "Bottom", Tang, Goh and Thng,
/// ACM TOMACS 2005), sorted once by (time, seq) and popped from its front.
/// Every rung and overflow event is strictly later than the list's last
/// entry, so a schedule no later than that goes into the list by sorted
/// insertion from the back, and a list that grows past kBottomMax spills
/// into a child rung. Because simulated time only moves forward, pops are
/// amortized O(1) — each event is touched a small constant number of times
/// on its way from insertion to firing — where a binary heap pays O(log n)
/// comparisons and, for deep queues, a cache miss per level. Far-future
/// events beyond the rung horizon sit in an unsorted overflow list that is
/// drained into a fresh rung when the ladder runs dry. Cancellation is lazy:
/// a cancelled event's entry stays put (its seq no longer matches the slot)
/// and is dropped when its bucket is drained or it reaches the list front.
/// The list front is always live, so NextTime() is a pure read.
///
/// Same-time lane: a wakeup scheduled at the time of the last fired event —
/// every Completion wakeup, half of all events in a paper-shaped run — skips
/// the slab and the ladder and is appended to a FIFO lane of (seq, handle,
/// token) records. The merge stays exact: every lane entry has time
/// last_fired_, seqs are issued in increasing order so the lane is sorted,
/// and a lane front loses only to a list front at that same time with a
/// smaller seq. A later ladder event never wins while the lane is non-empty,
/// so last_fired_ cannot advance past a lane entry and the pop sequence is
/// the same (time, seq) order a single queue would give.
///
/// Contract: events must not be scheduled earlier than the last fired event
/// (simulated time is monotone; Simulation::At already enforces
/// time >= Now()).
class Calendar {
 public:
  /// (generation << 32) | slot index. Never 0 for an issued event.
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEventId = 0;

  /// Capacity limits implied by the packed bucket-entry layout (seq and slot
  /// index share one 64-bit word). Exceeding either is a fatal error:
  /// 2^kSlotBits concurrently pending events, 2^(64-kSlotBits) events over a
  /// calendar's lifetime.
  static constexpr unsigned kSlotBits = 20;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);

  /// A popped event. Pop fills a record the caller keeps, so a handler is
  /// moved once on its way out of the calendar and runs from the record.
  struct Fired {
    SimTime time = 0.0;
    EventKind kind = EventKind::kHandler;
    EventFn fn;                      // engaged iff kind == kHandler
    std::coroutine_handle<> resume;  // valid  iff kind == kResume
    std::uint32_t token = 0;         // the wakeup's registry token (kResume)
  };

  Calendar() = default;
  Calendar(const Calendar&) = delete;
  Calendar& operator=(const Calendar&) = delete;

  /// Schedules `fn` (a callable, or an EventFn moved in) to fire at absolute
  /// time `time`. The callable is constructed in its slot. Returns an id
  /// that can be used to cancel the event before it fires.
  template <typename F>
  EventId Schedule(SimTime time, F&& fn);

  /// Schedules a coroutine wakeup at absolute time `time`; `token` is handed
  /// back in the Fired record. The calendar does not own the coroutine frame;
  /// the caller (the Simulation's suspended-process registry, which issued
  /// the token) remains responsible for destroying frames whose wakeup never
  /// fires. Wakeups cannot be cancelled, so no id is returned. A wakeup at
  /// the time of the last fired event goes to the same-time lane.
  void ScheduleResume(SimTime time, std::coroutine_handle<> h,
                      std::uint32_t token);

  /// Cancels a pending event. Returns true if the event was still pending;
  /// false for ids that already fired or were already cancelled (the
  /// generation tag makes this safe even after the slot was recycled).
  bool Cancel(EventId id);

  /// Removes the earliest pending event into `*out` and returns true, or
  /// returns false if none is pending. A handler is moved into `out->fn`
  /// (any callable `out` still held is destroyed first).
  bool Pop(Fired* out);

  /// Time of the earliest pending event, or kNever if the calendar is empty.
  /// Pure read: the value is kept exact across every mutation.
  SimTime NextTime() const {
    return lane_.empty() ? next_time_ : last_fired_;
  }

  /// Number of live (non-cancelled) pending events, lane entries included.
  std::size_t size() const { return live_ + lane_size(); }
  bool empty() const { return size() == 0; }

  /// Wakeups waiting in the same-time lane.
  std::size_t lane_size() const { return lane_.size() - lane_head_; }

  /// Capacity diagnostics: slots ever allocated (high-water mark of
  /// concurrently pending ladder events).
  std::size_t slot_capacity() const { return slots_.size(); }
  /// Entries the rung buckets and the bottom list keep storage for, occupied
  /// or not. Bounded by the pending events and the rung pool, not by
  /// simulated time.
  std::size_t bucket_capacity() const;

  /// Audit-mode sweep: every bucket entry sits in the bucket its time maps
  /// to, occupancy bitmaps and counts match bucket contents, live entries
  /// and free-listed slots partition the slab, no live event is earlier than
  /// the last one fired, the bottom list is sorted with a live front that is
  /// the true minimum and precedes every live rung and overflow event, and
  /// the lane holds non-null handles in strictly increasing issued seqs.
  /// No-op unless built with CCSIM_AUDIT; throttled internally because it is
  /// O(pending events).
  void AuditInvariants() const;

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  // Ladder geometry. kDefaultBuckets bounds a fresh rung's bucket count;
  // kMaxBuckets bounds the rebase rung (load factor count/kMaxBuckets, with
  // oversized buckets split on demand); buckets longer than kSplitMax split
  // into a kChildBuckets-wide child rung, and so does a bottom list holding
  // more than kBottomMax pending entries; kMaxRungs is a hard recursion
  // backstop far above any realistic refinement depth.
  static constexpr std::uint32_t kDefaultBuckets = 1024;
  static constexpr std::uint32_t kMinBuckets = 64;
  static constexpr std::uint32_t kMaxBuckets = 4096;
  static constexpr std::uint32_t kChildBuckets = 64;
  static constexpr std::size_t kSplitMax = 8;
  static constexpr std::size_t kBottomMax = 32;
  static constexpr std::size_t kMaxRungs = 48;

  // 16 bytes: bucket scatter and the bottom list move these, so small
  // matters. `key` packs the global insertion seq above the slab index; seqs
  // are unique, so comparing keys compares seqs, and the slot rides along
  // for free.
  struct Entry {
    SimTime time;
    std::uint64_t key;  // (seq << kSlotBits) | slot
    std::uint64_t seq() const { return key >> kSlotBits; }
    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(key & (kMaxSlots - 1));
    }
  };
  // Branchless on purpose (bitwise ops, no short-circuit): the bottom list's
  // sort compares with this, and a compare that branches on data mispredicts.
  static bool Earlier(const Entry& a, const Entry& b) {
    return (a.time < b.time) |
           (static_cast<int>(a.time == b.time) &
            static_cast<int>(a.key < b.key));
  }

  // The event payload. Its liveness word is kept apart, in pending_seq_.
  struct Slot {
    EventFn fn;                                // engaged iff handler event
    std::coroutine_handle<> resume = nullptr;  // set iff resume event
    SimTime time = 0.0;                        // scheduled fire time
    std::uint32_t token = 0;                   // registry token if resume
    // Generation currently associated with this slot. Issued to the id when
    // the slot is allocated; bumped when the slot is freed (fire or cancel),
    // which invalidates every outstanding id for it. Wraps after 2^32
    // reuses of one slot; an outstanding id aliasing across a full wrap is
    // not a realistic event count for one simulation.
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNilSlot;
  };

  // One ladder rung: a contiguous span of simulated time [base, horizon)
  // cut into nbuckets equal-width buckets, plus an occupancy bitmap so the
  // first non-empty bucket is found with a couple of word scans. Rung
  // objects are pooled in rungs_ and reused, so their bucket vectors keep
  // their capacity across activations - except a split bucket of the
  // bottom rung and a large drained bucket, which hand their storage back
  // (SplitBucket, Refill).
  struct Rung {
    SimTime base = 0.0;
    double width = 1.0;
    double inv_width = 1.0;
    SimTime horizon = 0.0;      // exclusive upper bound for routing
    std::uint32_t nbuckets = 0;
    std::uint32_t cur = 0;      // no occupied bucket below this index
    std::size_t count = 0;      // physical entries (live + lazily cancelled)
    std::vector<std::vector<Entry>> buckets;
    std::vector<std::uint64_t> occupied;
  };

  // A same-time wakeup: its time is last_fired_, so only the seq is kept.
  struct LaneEntry {
    std::uint64_t seq;
    std::coroutine_handle<> resume;
    std::uint32_t token;
  };

  static constexpr EventId MakeId(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  bool EntryLive(const Entry& e) const {
    return pending_seq_[e.slot()] == e.seq();
  }

  // The bucket index for time t in rung r. Clamped into [0, nbuckets);
  // IEEE subtract/multiply are monotone, so the mapping is monotone in t —
  // bucket i's times never exceed bucket j's for i < j — which is all
  // ordering correctness needs (nominal bucket boundaries may shift by an
  // ulp, the partition stays sorted).
  static std::uint32_t BucketIndex(const Rung& r, SimTime t);

  // Checks a handler event's time and allocates its slot.
  std::uint32_t ClaimSlot(SimTime time);
  std::uint32_t AllocSlot();
  void FreeSlot(std::uint32_t index);
  EventId ScheduleSlot(SimTime time, std::uint32_t slot);
  // Routes an entry later than the bottom list's last one to the deepest
  // rung whose span contains its time, opening a rung, an under-rung or the
  // overflow list as needed.
  void Place(Entry e);
  void InsertIntoRung(Rung& r, Entry e);
  // Resets a pooled rung to cover [base, base + nbuckets*width).
  void ShapeRung(Rung& r, SimTime base, double width, std::uint32_t nbuckets);
  std::uint32_t FirstOccupied(const Rung& r) const;
  void SetBit(Rung& r, std::uint32_t b) {
    r.occupied[b >> 6] |= 1ull << (b & 63);
  }
  void ClearBit(Rung& r, std::uint32_t b) {
    r.occupied[b >> 6] &= ~(1ull << (b & 63));
  }
  // Drains the overflow list into a fresh bottom rung spanning its live
  // time range.
  void Rebase();
  // Shapes a kChildBuckets-wide rung spanning [lo, hi] and pushes it as the
  // deepest rung. Returns false, opening nothing, when the span cannot be
  // refined (lo == hi, or the rung stack is full).
  bool OpenChildRung(SimTime lo, SimTime hi);
  // Splits rung r's bucket b into a finer child rung. Returns false when the
  // bucket cannot be refined and must be taken as-is.
  bool SplitBucket(Rung& r, std::uint32_t b);
  // Sorted insertion of an entry no later than the bottom list's last one.
  // A list grown past kBottomMax pending entries spills into a child rung
  // (dropping its cancelled entries) and is refilled from it.
  void InsertIntoBottom(Entry e);
  // Drops cancelled entries off the bottom list's front, refilling the list
  // when it runs dry, and sets next_time_ to the front's time (kNever once
  // the calendar is empty).
  void SettleFront();
  // Fills the empty bottom list from the first occupied bucket of the
  // deepest rung, compacting cancelled entries, popping exhausted rungs,
  // rebasing from overflow and splitting oversized buckets along the way.
  // Sets next_time_ exactly; returns false when no event is pending.
  // Amortized O(1).
  bool Refill();
  void MaybeAudit();

  std::vector<Rung> rungs_ = std::vector<Rung>(kMaxRungs);  // pooled stack
  std::size_t depth_ = 0;   // active rungs: rungs_[0..depth_), deepest last
  std::vector<Entry> top_;  // unsorted overflow beyond the rung horizons
  SimTime top_min_ = kNever;  // lower bound on live overflow times

  // The bottom list: the earliest ladder events, pending entries
  // bottom_[bottom_head_..] sorted by (time, seq). Its front is live
  // whenever live_ > 0, and every rung and overflow entry is strictly later
  // than its last entry. Reset (not shrunk) when drained, so it stops
  // allocating at its high-water mark. With one event pending the list
  // holds just that event, and the bucket machinery is not touched.
  std::vector<Entry> bottom_;
  std::size_t bottom_head_ = 0;

  // The same-time lane: pending entries are lane_[lane_head_..]. Reset (not
  // shrunk) when drained, so a non-empty vector means a non-empty lane, and
  // it stops allocating at its high-water mark.
  std::vector<LaneEntry> lane_;
  std::size_t lane_head_ = 0;

  std::vector<Slot> slots_;
  // Per slot, the seq of the event occupying it (0 = none): the liveness
  // test for queue entries, in an array of its own so the test touches 8
  // bytes, not a whole slot. Distinct from Slot::gen, which validates
  // EventIds across slot reuse.
  std::vector<std::uint64_t> pending_seq_;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t live_ = 0;  // live ladder events (the lane is counted apart)
  // Cancelled entries still physically present in the bottom list, buckets
  // or overflow. With live_ == 0 && dead_ == 0 the ladder is known empty
  // without a walk.
  std::size_t dead_ = 0;
  std::uint64_t next_seq_ = 1;
  SimTime last_fired_ = 0.0;
  SimTime next_time_ = kNever;  // exact earliest live ladder time, or kNever
  double last_gap_ = 1.0;       // last positive inter-fire gap (width hint)
  // Operations since the last audit sweep (audit builds only).
  std::uint64_t audit_tick_ = 0;
};

// ccsim-analyze: hot-path(every timed action in the simulation funnels here)
template <typename F>
Calendar::EventId Calendar::Schedule(SimTime time, F&& fn) {
  if constexpr (std::is_same_v<std::remove_cvref_t<F>, EventFn>) {
    CCSIM_CHECK_MSG(static_cast<bool>(fn),
                    "event scheduled with empty handler");
  }
  std::uint32_t slot = ClaimSlot(time);
  slots_[slot].fn.Emplace(std::forward<F>(fn));
  return ScheduleSlot(time, slot);
}

}  // namespace ccsim::sim

#endif  // CCSIM_SIM_CALENDAR_H_
