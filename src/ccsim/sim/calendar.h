#ifndef CCSIM_SIM_CALENDAR_H_
#define CCSIM_SIM_CALENDAR_H_

#include <coroutine>
#include <cstdint>
#include <optional>
#include <vector>

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
/// structures grow to their high-water marks and are then reused).
///
/// The pending set itself is a ladder of time-bucketed rungs (a calendar
/// queue in the Brown / ladder-queue tradition) rather than a comparison
/// heap: events are scattered into buckets by time, the current bucket is
/// scanned for its exact (time, seq) minimum, and oversized buckets split
/// into finer child rungs on demand. Because simulated time only moves
/// forward, pops are amortized O(1) — each event is touched a small constant
/// number of times on its way from insertion to firing — where a binary heap
/// pays O(log n) comparisons and, for deep queues, a cache miss per level.
/// Far-future events beyond the rung horizon sit in an unsorted overflow
/// list that is drained into a fresh rung when the ladder runs dry.
/// Cancellation is lazy: a cancelled event's bucket entry stays put (its seq
/// no longer matches the slot) and is dropped when its bucket is next
/// scanned. The exact next event time is cached on every mutation, so
/// NextTime() is a pure read.
///
/// Same-time lane: a wakeup scheduled at the time of the last fired event —
/// every Completion wakeup, half of all events in a paper-shaped run — skips
/// the slab and the ladder and is appended to a FIFO lane of (seq, handle,
/// token) records. The merge stays exact: every lane entry has time
/// last_fired_, seqs are issued in increasing order so the lane is sorted,
/// and a lane front loses only to a ladder head at that same time with a
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
  using Handler = EventFn;

  /// Capacity limits implied by the packed bucket-entry layout (seq and slot
  /// index share one 64-bit word). Exceeding either is a fatal error:
  /// 2^kSlotBits concurrently pending events, 2^(64-kSlotBits) events over a
  /// calendar's lifetime.
  static constexpr unsigned kSlotBits = 20;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);

  struct Fired {
    SimTime time;
    EventKind kind;
    EventFn fn;                      // engaged iff kind == kHandler
    std::coroutine_handle<> resume;  // valid  iff kind == kResume
    std::uint32_t token = 0;         // the wakeup's registry token (kResume)
  };

  Calendar() = default;
  Calendar(const Calendar&) = delete;
  Calendar& operator=(const Calendar&) = delete;

  /// Schedules `fn` to fire at absolute time `time`. Returns an id that can
  /// be used to cancel the event before it fires.
  EventId Schedule(SimTime time, EventFn fn);

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

  /// Removes and returns the earliest pending event, or nullopt if none.
  std::optional<Fired> PopNext();

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
  /// Entries the rung buckets keep storage for, occupied or not. Bounded by
  /// the pending events and the rung pool, not by simulated time.
  std::size_t bucket_capacity() const;

  /// Audit-mode sweep: every bucket entry sits in the bucket its time maps
  /// to, occupancy bitmaps and counts match bucket contents, live entries
  /// and free-listed slots partition the slab, no live event is earlier than
  /// the last one fired, the cached next-time equals the true minimum, and
  /// the lane holds non-null handles in strictly increasing issued seqs.
  /// No-op unless built with CCSIM_AUDIT; throttled internally because it is
  /// O(pending events).
  void AuditInvariants() const;

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  // Ladder geometry. kDefaultBuckets bounds a fresh rung's bucket count;
  // kMaxBuckets bounds the rebase rung (load factor count/kMaxBuckets, with
  // oversized buckets split on demand); buckets longer than kSplitMax split
  // into a kChildBuckets-wide child rung; kMaxRungs is a hard recursion
  // backstop far above any realistic refinement depth.
  static constexpr std::uint32_t kDefaultBuckets = 1024;
  static constexpr std::uint32_t kMinBuckets = 64;
  static constexpr std::uint32_t kMaxBuckets = 4096;
  static constexpr std::uint32_t kChildBuckets = 64;
  static constexpr std::size_t kSplitMax = 8;
  static constexpr std::size_t kMaxRungs = 48;

  // 16 bytes: bucket scatter/scan moves these, so small matters. `key` packs
  // the global insertion seq above the slab index; seqs are unique, so
  // comparing keys compares seqs, and the slot rides along for free.
  struct Entry {
    SimTime time;
    std::uint64_t key;  // (seq << kSlotBits) | slot
    std::uint64_t seq() const { return key >> kSlotBits; }
    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(key & (kMaxSlots - 1));
    }
  };
  // Branchless on purpose (bitwise ops, no short-circuit): bucket min-scans
  // select with this, and a compare that branches on data mispredicts.
  static bool Earlier(const Entry& a, const Entry& b) {
    return (a.time < b.time) |
           (static_cast<int>(a.time == b.time) &
            static_cast<int>(a.key < b.key));
  }

  struct Slot {
    EventFn fn;                                // engaged iff handler event
    std::coroutine_handle<> resume = nullptr;  // set iff resume event
    SimTime time = 0.0;                        // scheduled fire time
    std::uint32_t token = 0;                   // registry token if resume
    // Seq of the event currently occupying this slot (0 = none): the
    // liveness test for bucket entries. Distinct from `gen`, which validates
    // EventIds across slot reuse.
    std::uint64_t pending_seq = 0;
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
  // bottom rung, which hands its storage back (SplitBucket).
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

  // Location of the head event, valid until the next mutation.
  struct Head {
    std::size_t rung;
    std::uint32_t bucket;
    std::size_t index;
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
    return slots_[e.slot()].pending_seq == e.seq();
  }

  // The bucket index for time t in rung r. Clamped into [0, nbuckets);
  // IEEE subtract/multiply are monotone, so the mapping is monotone in t —
  // bucket i's times never exceed bucket j's for i < j — which is all
  // ordering correctness needs (nominal bucket boundaries may shift by an
  // ulp, the partition stays sorted).
  static std::uint32_t BucketIndex(const Rung& r, SimTime t);

  std::uint32_t AllocSlot();
  void FreeSlot(std::uint32_t index);
  EventId ScheduleSlot(SimTime time, std::uint32_t slot);
  // Routes an entry to the deepest rung whose span contains its time,
  // opening an under-rung or the overflow list as needed. Returns the bucket
  // index when the entry landed in the deepest rung (so a schedule that
  // undercuts next_time_ can set the cached head directly), -1 otherwise.
  std::int64_t Place(Entry e);
  std::uint32_t InsertIntoRung(Rung& r, Entry e);
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
  // Splits rung r's bucket b into a finer child rung. Returns false when the
  // bucket cannot be refined (all times equal, width exhausted, or the rung
  // stack is full) and must be scanned as-is.
  bool SplitBucket(Rung& r, std::uint32_t b);
  // Locates the earliest live event, compacting cancelled entries, popping
  // exhausted rungs, rebasing from overflow, and splitting oversized current
  // buckets along the way. Sets next_time_ exactly; returns false when the
  // calendar is empty. Amortized O(1).
  bool RefreshHead(Head* head);
  void RemoveAt(const Head& head);
  // True when the ladder's earliest event ties the lane front at last_fired_
  // and was scheduled before it. Requires a non-empty lane.
  bool LadderHeadPrecedesLane();
  void MaybeAudit();

  std::vector<Rung> rungs_ = std::vector<Rung>(kMaxRungs);  // pooled stack
  std::size_t depth_ = 0;   // active rungs: rungs_[0..depth_), deepest last
  std::vector<Entry> top_;  // unsorted overflow beyond the rung horizons
  SimTime top_min_ = kNever;  // lower bound on live overflow times

  // Cached location of the head event, maintained across pops so the common
  // pop doesn't re-locate. Invalidated when a schedule undercuts next_time_
  // (the new event may sit in a different rung) and re-established by
  // RefreshHead. head_valid_ implies the calendar is non-empty.
  Head head_{};
  bool head_valid_ = false;

  // Single-event fast path: when the calendar is otherwise empty the event
  // parks here instead of in a bucket, and fires straight from the
  // register. A second schedule demotes it into the ladder. This makes the
  // ubiquitous one-pending-event cycle (schedule completion, fire, schedule
  // the next) bypass the bucket machinery entirely. Invariant: solo_valid_
  // implies the ladder and overflow are physically empty, live_ == 1, and
  // dead_ == 0.
  Entry solo_{};
  bool solo_valid_ = false;

  // The same-time lane: pending entries are lane_[lane_head_..]. Reset (not
  // shrunk) when drained, so a non-empty vector means a non-empty lane, and
  // it stops allocating at its high-water mark.
  std::vector<LaneEntry> lane_;
  std::size_t lane_head_ = 0;

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t live_ = 0;  // live ladder events (the lane is counted apart)
  // Cancelled entries still physically present in buckets/overflow. With
  // live_ == 0 && dead_ == 0 the ladder is known empty without a walk.
  std::size_t dead_ = 0;
  std::uint64_t next_seq_ = 1;
  SimTime last_fired_ = 0.0;
  SimTime next_time_ = kNever;  // exact earliest live ladder time, or kNever
  double last_gap_ = 1.0;       // last positive inter-fire gap (width hint)
  // Operations since the last audit sweep (audit builds only).
  std::uint64_t audit_tick_ = 0;
};

}  // namespace ccsim::sim

#endif  // CCSIM_SIM_CALENDAR_H_
