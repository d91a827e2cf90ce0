#include "ccsim/sim/calendar.h"

#include <bit>
#include <cmath>
#include <limits>
#include <unordered_set>
#include <utility>

#include "ccsim/sim/check.h"

namespace ccsim::sim {

namespace {
// Audit sweeps are O(pending events); run one every kAuditPeriod calendar
// operations so audit builds stay usable on long runs.
constexpr std::uint64_t kAuditPeriod = 64;

// Floor on rung bucket widths: keeping widths normal keeps 1/width finite,
// so the bucket mapping never sees an infinity or NaN.
constexpr double kMinWidth = std::numeric_limits<double>::min();

// Smallest double strictly greater than t. Rung horizons that absorb
// existing entries are set to NextUp(max time): anything wider could route a
// later insert into this rung even though earlier events for it still sit in
// an outer bucket that has not been reached yet.
SimTime NextUp(SimTime t) { return std::nextafter(t, kNever); }
}  // namespace

std::uint32_t Calendar::AllocSlot() {
  if (free_head_ != kNilSlot) {
    std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    slots_[index].next_free = kNilSlot;
    return index;
  }
  CCSIM_CHECK_MSG(slots_.size() < kMaxSlots, "calendar slot slab exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Calendar::FreeSlot(std::uint32_t index) {
  Slot& s = slots_[index];
  s.fn.Reset();
  s.resume = nullptr;
  s.pending_seq = 0;  // kills this slot's bucket entry (lazy deletion)
  ++s.gen;            // invalidates every outstanding id for this slot
  s.next_free = free_head_;
  free_head_ = index;
}

std::uint32_t Calendar::BucketIndex(const Rung& r, SimTime t) {
  double off = (t - r.base) * r.inv_width;
  if (!(off > 0.0)) return 0;
  if (off >= static_cast<double>(r.nbuckets)) return r.nbuckets - 1;
  return static_cast<std::uint32_t>(off);
}

void Calendar::ShapeRung(Rung& r, SimTime base, double width,
                         std::uint32_t nbuckets) {
  CCSIM_DCHECK(width >= kMinWidth);
  r.base = base;
  r.width = width;
  r.inv_width = 1.0 / width;
  r.horizon = base + static_cast<double>(nbuckets) * width;
  r.nbuckets = nbuckets;
  r.cur = 0;
  r.count = 0;
  if (r.buckets.size() < nbuckets) r.buckets.resize(nbuckets);
  r.occupied.assign((nbuckets + 63) >> 6, 0);
}

std::uint32_t Calendar::InsertIntoRung(Rung& r, Entry e) {
  std::uint32_t b = BucketIndex(r, e.time);
  std::vector<Entry>& bucket = r.buckets[b];
  if (bucket.empty()) SetBit(r, b);
  bucket.push_back(e);
  ++r.count;
  if (b < r.cur) r.cur = b;
  return b;
}

std::int64_t Calendar::Place(Entry e) {
  const SimTime t = e.time;
  if (depth_ == 0) {
    // The ladder is empty; any pending events are all in overflow. If the
    // drained bottom rung still covers this event (and its horizon still
    // respects the overflow minimum, which may have dropped since), revive
    // it as-is: popped rungs leave an all-zero bitmap behind, so this is
    // free — the common case for shallow queues, where every pop drains the
    // ladder.
    Rung& r0 = rungs_[0];
    if (r0.nbuckets != 0 && t >= r0.base && t < r0.horizon &&
        r0.horizon <= top_min_) {
      CCSIM_DCHECK(r0.count == 0);
      depth_ = 1;
      return InsertIntoRung(r0, e);
    }
    // Otherwise open a fresh bottom rung at the current time — sized by the
    // recent inter-fire gap, and never reaching past the earliest overflow
    // event, which keeps every rung-resident time below every overflow time.
    double width = std::max(last_gap_, kMinWidth);
    SimTime horizon = std::min(
        last_fired_ + static_cast<double>(kDefaultBuckets) * width, top_min_);
    if (t >= horizon) {
      top_.push_back(e);
      if (t < top_min_) top_min_ = t;
      return -1;
    }
    Rung& r = rungs_[0];
    ShapeRung(r, last_fired_, width, kDefaultBuckets);
    r.horizon = horizon;
    depth_ = 1;
    return InsertIntoRung(r, e);
  }
  Rung& deepest = rungs_[depth_ - 1];
  if (t < deepest.horizon) {
    if (t >= deepest.base) {
      return InsertIntoRung(deepest, e);
    }
    // The event precedes the deepest refinement — possible only at the
    // deepest rung, since every rung's base is covered by the rung below
    // it. Open an under-rung spanning the uncovered [last_fired_, base) gap.
    CCSIM_CHECK_MSG(depth_ < kMaxRungs, "calendar rung stack overflow");
    SimTime bound = deepest.base;
    double width = std::max((bound - last_fired_) /
                                static_cast<double>(kDefaultBuckets),
                            kMinWidth);
    Rung& under = rungs_[depth_];
    ShapeRung(under, last_fired_, width, kDefaultBuckets);
    under.horizon = bound;
    ++depth_;
    return InsertIntoRung(under, e);
  }
  for (std::size_t d = depth_ - 1; d-- > 0;) {
    Rung& r = rungs_[d];
    if (t < r.horizon) {
      InsertIntoRung(r, e);
      return -1;  // not the deepest rung: never a head location
    }
  }
  top_.push_back(e);
  if (t < top_min_) top_min_ = t;
  return -1;
}

void Calendar::Rebase() {
  SimTime lo = kNever;
  SimTime hi = 0.0;
  std::size_t n_live = 0;
  for (const Entry& e : top_) {
    if (!EntryLive(e)) continue;
    if (n_live == 0) {
      lo = e.time;
      hi = e.time;
    } else {
      if (e.time < lo) lo = e.time;
      if (e.time > hi) hi = e.time;
    }
    ++n_live;
  }
  CCSIM_DCHECK(dead_ >= top_.size() - n_live);
  dead_ -= top_.size() - n_live;  // cancelled overflow entries drop here
  if (n_live == 0) {
    top_.clear();
    top_min_ = kNever;
    return;
  }
  std::uint32_t n = kMinBuckets;
  while (n < n_live && n < kMaxBuckets) n <<= 1;
  double width =
      std::max((hi - lo) / static_cast<double>(n), kMinWidth);
  Rung& r = rungs_[0];
  ShapeRung(r, lo, width, n);
  // The overflow list is drained in full, so a generous horizon is safe; it
  // just has to strictly cover hi so a later insert at hi routes here too.
  if (!(r.horizon > hi)) r.horizon = NextUp(hi);
  for (const Entry& e : top_) {
    if (EntryLive(e)) InsertIntoRung(r, e);
  }
  top_.clear();
  top_min_ = kNever;
  depth_ = 1;
}

bool Calendar::SplitBucket(Rung& r, std::uint32_t b) {
  std::vector<Entry>& bucket = r.buckets[b];
  SimTime lo = bucket[0].time;
  SimTime hi = bucket[0].time;
  for (const Entry& e : bucket) {
    if (e.time < lo) lo = e.time;
    if (e.time > hi) hi = e.time;
  }
  if (lo == hi) return false;             // all ties: a scan fires them in seq order
  if (depth_ >= kMaxRungs) return false;  // pathological depth: degrade to scans
  double width = std::max((hi - lo) / static_cast<double>(kChildBuckets),
                          kMinWidth);
  Rung& child = rungs_[depth_];
  ShapeRung(child, lo, width, kChildBuckets);
  // Exact horizon: events later than hi belong to this parent bucket's
  // remaining span, and must not be captured by the child.
  child.horizon = NextUp(hi);
  ++depth_;
  for (const Entry& e : bucket) InsertIntoRung(child, e);
  r.count -= bucket.size();
  if (&r == &rungs_[0]) {
    // The bottom rung walks forward through up to kMaxBuckets buckets and
    // visits each about once per shaping, so a split bucket's storage would
    // sit idle for the rest of the run, and with dense events the idle
    // storage would grow with simulated time. Child rungs are re-shaped for
    // every split and reuse their buckets' capacity, so the warm path stays
    // allocation-free.
    std::vector<Entry>().swap(bucket);
  } else {
    bucket.clear();
  }
  ClearBit(r, b);
  return true;
}

std::size_t Calendar::bucket_capacity() const {
  std::size_t total = 0;
  for (const Rung& r : rungs_) {
    for (const std::vector<Entry>& bucket : r.buckets) {
      total += bucket.capacity();
    }
  }
  return total;
}

std::uint32_t Calendar::FirstOccupied(const Rung& r) const {
  std::size_t w = r.cur >> 6;
  std::uint64_t word = r.occupied[w] & (~0ull << (r.cur & 63));
  while (word == 0) {
    ++w;
    CCSIM_CHECK_MSG(w < r.occupied.size(),
                    "calendar rung count/bitmap out of sync");
    word = r.occupied[w];
  }
  return static_cast<std::uint32_t>((w << 6) + std::countr_zero(word));
}

bool Calendar::RefreshHead(Head* head) {
  for (;;) {
    while (depth_ > 0 && rungs_[depth_ - 1].count == 0) --depth_;
    if (depth_ == 0) {
      if (top_.empty()) {
        next_time_ = kNever;
        head_valid_ = false;
        return false;
      }
      Rebase();
      continue;
    }
    Rung& r = rungs_[depth_ - 1];
    std::uint32_t b = FirstOccupied(r);
    r.cur = b;
    std::vector<Entry>& bucket = r.buckets[b];
    // Compact lazily-cancelled entries out of the current bucket.
    for (std::size_t i = 0; i < bucket.size();) {
      if (EntryLive(bucket[i])) {
        ++i;
        continue;
      }
      bucket[i] = bucket.back();
      bucket.pop_back();
      --r.count;
      CCSIM_DCHECK(dead_ > 0);
      --dead_;
    }
    if (bucket.empty()) {
      ClearBit(r, b);
      continue;
    }
    if (bucket.size() > kSplitMax && SplitBucket(r, b)) continue;
    std::size_t best = 0;
    for (std::size_t i = 1; i < bucket.size(); ++i) {
      if (Earlier(bucket[i], bucket[best])) best = i;
    }
    next_time_ = bucket[best].time;
    if (head != nullptr) {
      head->rung = depth_ - 1;
      head->bucket = b;
      head->index = best;
      head_valid_ = (head == &head_);
    }
    return true;
  }
}

void Calendar::RemoveAt(const Head& head) {
  Rung& r = rungs_[head.rung];
  std::vector<Entry>& bucket = r.buckets[head.bucket];
  bucket[head.index] = bucket.back();
  bucket.pop_back();
  --r.count;
  if (bucket.empty()) ClearBit(r, head.bucket);
}

Calendar::EventId Calendar::ScheduleSlot(SimTime time, std::uint32_t slot) {
  CCSIM_CHECK_MSG(next_seq_ < kMaxSeq, "calendar event seq space exhausted");
  std::uint64_t seq = next_seq_++;
  Slot& s = slots_[slot];
  s.pending_seq = seq;
  s.time = time;
  Entry e{time, (seq << kSlotBits) | slot};
  if (live_ == 0 && dead_ == 0) {
    solo_ = e;
    solo_valid_ = true;
    next_time_ = time;
    ++live_;
    MaybeAudit();
    return MakeId(s.gen, slot);
  }
  if (solo_valid_) {
    // A second event arrived: demote the parked one into the ladder. It is
    // the current minimum over an otherwise-empty ladder, so its location
    // (when it lands in a rung) is the head.
    solo_valid_ = false;
    std::int64_t sb = Place(solo_);
    if (sb >= 0) {
      const Rung& r = rungs_[depth_ - 1];
      head_ = Head{depth_ - 1, static_cast<std::uint32_t>(sb),
                   r.buckets[static_cast<std::uint32_t>(sb)].size() - 1};
      head_valid_ = true;
    } else {
      head_valid_ = false;
    }
  }
  std::int64_t b = Place(e);
  if (time < next_time_) {
    next_time_ = time;
    // A strict undercut of the exact previous minimum is the unique live
    // minimum, so if it landed in the deepest rung it IS the head — point
    // the cache at it (it was just pushed, so it sits at the bucket's back).
    // Anywhere else (overflow, or an outer rung when the deepest holds only
    // cancelled entries), fall back to a re-locate on the next pop.
    if (b >= 0) {
      const Rung& r = rungs_[depth_ - 1];
      head_ = Head{depth_ - 1, static_cast<std::uint32_t>(b),
                   r.buckets[static_cast<std::uint32_t>(b)].size() - 1};
      head_valid_ = true;
    } else {
      head_valid_ = false;
    }
  }
  ++live_;
  MaybeAudit();
  return MakeId(s.gen, slot);
}

// ccsim-analyze: hot-path(every timed action in the simulation funnels here)
Calendar::EventId Calendar::Schedule(SimTime time, EventFn fn) {
  CCSIM_CHECK_MSG(time == time, "event scheduled at NaN time");
  CCSIM_CHECK_MSG(time < kNever, "event scheduled at infinite time");
  CCSIM_CHECK_MSG(time >= last_fired_, "event scheduled in the simulated past");
  CCSIM_CHECK_MSG(static_cast<bool>(fn), "event scheduled with empty handler");
  std::uint32_t slot = AllocSlot();
  slots_[slot].fn = std::move(fn);
  return ScheduleSlot(time, slot);
}

// ccsim-analyze: hot-path(every coroutine wakeup funnels here)
void Calendar::ScheduleResume(SimTime time, std::coroutine_handle<> h,
                              std::uint32_t token) {
  CCSIM_CHECK_MSG(h != nullptr, "wakeup scheduled for a null coroutine");
  if (time == last_fired_) {
    CCSIM_CHECK_MSG(next_seq_ < kMaxSeq, "calendar event seq space exhausted");
    lane_.push_back(LaneEntry{next_seq_++, h, token});
    MaybeAudit();
    return;
  }
  CCSIM_CHECK_MSG(time == time, "wakeup scheduled at NaN time");
  CCSIM_CHECK_MSG(time < kNever, "wakeup scheduled at infinite time");
  CCSIM_CHECK_MSG(time >= last_fired_,
                  "wakeup scheduled in the simulated past");
  std::uint32_t slot = AllocSlot();
  slots_[slot].resume = h;
  slots_[slot].token = token;
  ScheduleSlot(time, slot);
}

// ccsim-analyze: hot-path(fired per timeout rearm; lazy cancel keeps it O(1))
bool Calendar::Cancel(EventId id) {
  std::uint32_t slot = static_cast<std::uint32_t>(id);
  std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen ||
      slots_[slot].pending_seq == 0) {
    return false;
  }
  CCSIM_CHECK_MSG(slots_[slot].resume == nullptr,
                  "cancelled a coroutine wakeup event");
  SimTime time = slots_[slot].time;
  FreeSlot(slot);
  CCSIM_CHECK(live_ > 0);
  --live_;
  if (solo_valid_ && solo_.slot() == slot) {
    // The register holds the only copy of this event; drop it outright.
    solo_valid_ = false;
    next_time_ = kNever;
    CCSIM_DCHECK(live_ == 0 && dead_ == 0);
  } else {
    // The bucket entry goes stale and is compacted on the next scan.
    // Cancelling a non-head event leaves the cached head untouched (removal
    // is lazy, so bucket indices are stable); cancelling at the head time
    // forces a re-locate to keep next_time_ exact.
    ++dead_;
    if (time == next_time_) RefreshHead(&head_);
  }
  MaybeAudit();
  return true;
}

bool Calendar::LadderHeadPrecedesLane() {
  // next_time_ is the exact ladder minimum and never below last_fired_, so a
  // ladder head that is not at the lane's time is later (or absent).
  if (next_time_ != last_fired_) return false;
  std::uint64_t seq;
  if (solo_valid_) {
    seq = solo_.seq();
  } else {
    if (!head_valid_) RefreshHead(&head_);
    seq = rungs_[head_.rung].buckets[head_.bucket][head_.index].seq();
  }
  return seq < lane_[lane_head_].seq;
}

// ccsim-analyze: hot-path(the event-loop dequeue; runs once per event)
std::optional<Calendar::Fired> Calendar::PopNext() {
  if (!lane_.empty() && !LadderHeadPrecedesLane()) {
    const LaneEntry& le = lane_[lane_head_];
    Fired fired{last_fired_, EventKind::kResume, EventFn(), le.resume,
                le.token};
    if (++lane_head_ == lane_.size()) {
      lane_.clear();
      lane_head_ = 0;
    }
    MaybeAudit();
    return fired;
  }
  Entry e;
  if (solo_valid_) {
    e = solo_;
    solo_valid_ = false;  // the register held the only copy
  } else {
    if (!head_valid_ && !RefreshHead(&head_)) return std::nullopt;
    e = rungs_[head_.rung].buckets[head_.bucket][head_.index];
    RemoveAt(head_);
  }
  Slot& s = slots_[e.slot()];
  CCSIM_DCHECK_MSG(s.pending_seq == e.seq(), "calendar head was not live");
  Fired fired{e.time,
              s.resume != nullptr ? EventKind::kResume : EventKind::kHandler,
              std::move(s.fn), s.resume, s.token};
  FreeSlot(e.slot());
  --live_;
  CCSIM_DCHECK_MSG(e.time >= last_fired_, "simulated time ran backwards");
  if (e.time > last_fired_) last_gap_ = e.time - last_fired_;
  last_fired_ = e.time;
  if (live_ == 0 && dead_ == 0) {
    // Every bucket and the overflow list are empty (each physical entry is
    // live or cancelled-pending-compaction): skip the locate walk. Collapse
    // the stack so the next schedule can revive or re-anchor the bottom
    // rung — keeping a drained refinement rung active would shrink the
    // routing horizon to its sliver of time and overflow everything after
    // it.
    depth_ = 0;
    next_time_ = kNever;
    head_valid_ = false;
  } else {
    RefreshHead(&head_);
  }
  MaybeAudit();
  return fired;
}

void Calendar::MaybeAudit() {
  if (kAuditEnabled && ++audit_tick_ % kAuditPeriod == 0) AuditInvariants();
}

void Calendar::AuditInvariants() const {
  if (!kAuditEnabled) return;
  std::size_t live_seen = 0;
  std::size_t dead_seen = 0;
  std::unordered_set<std::uint32_t> live_slots;
  std::unordered_set<std::uint64_t> seqs;
  SimTime true_min = kNever;
  std::uint64_t min_key = ~0ull;
  auto check_entry = [&](const Entry& e) {
    CCSIM_DCHECK_MSG(e.slot() < slots_.size(),
                     "calendar entry with unissued slot");
    CCSIM_DCHECK_MSG(e.seq() < next_seq_, "calendar entry with unissued seq");
    CCSIM_DCHECK_MSG(seqs.insert(e.seq()).second,
                     "duplicate insertion seq in the calendar");
    if (!EntryLive(e)) {
      ++dead_seen;
      return;
    }
    ++live_seen;
    CCSIM_DCHECK_MSG(live_slots.insert(e.slot()).second,
                     "two live calendar entries share a slot");
    CCSIM_DCHECK_MSG(e.time >= last_fired_,
                     "pending event earlier than the last fired event");
    CCSIM_DCHECK_MSG(slots_[e.slot()].time == e.time,
                     "slot fire time out of sync with its calendar entry");
    if (e.time < true_min || (e.time == true_min && e.key < min_key)) {
      true_min = e.time;
      min_key = e.key;
    }
  };
  for (std::size_t d = 0; d < depth_; ++d) {
    const Rung& r = rungs_[d];
    CCSIM_DCHECK_MSG(r.width >= kMinWidth, "calendar rung width degenerate");
    if (d > 0) {
      CCSIM_DCHECK_MSG(r.horizon <= rungs_[d - 1].horizon,
                       "calendar rung horizons not nested");
    }
    std::size_t entries = 0;
    for (std::uint32_t b = 0; b < r.nbuckets; ++b) {
      const std::vector<Entry>& bucket = r.buckets[b];
      bool bit = (r.occupied[b >> 6] >> (b & 63)) & 1;
      CCSIM_DCHECK_MSG(bit == !bucket.empty(),
                       "calendar occupancy bitmap out of sync");
      CCSIM_DCHECK_MSG(bucket.empty() || b >= r.cur,
                       "occupied bucket below the rung cursor");
      entries += bucket.size();
      for (const Entry& e : bucket) {
        CCSIM_DCHECK_MSG(BucketIndex(r, e.time) == b,
                         "calendar entry in the wrong bucket");
        CCSIM_DCHECK_MSG(e.time >= r.base && e.time < r.horizon,
                         "calendar entry outside its rung span");
        check_entry(e);
      }
    }
    CCSIM_DCHECK_MSG(entries == r.count,
                     "calendar rung count out of sync with its buckets");
  }
  for (const Entry& e : top_) {
    // Every overflow time sits at/after every rung horizon, so rungs always
    // drain before overflow — the ordering invariant the horizon caps exist
    // to maintain. (Only live entries: a stale cancelled entry's time may
    // have been passed by.)
    if (EntryLive(e)) {
      CCSIM_DCHECK_MSG(e.time >= top_min_,
                       "overflow event earlier than the tracked minimum");
      for (std::size_t d = 0; d < depth_; ++d) {
        CCSIM_DCHECK_MSG(e.time >= rungs_[d].horizon,
                         "overflow event inside a rung horizon");
      }
    }
    check_entry(e);
  }
  if (solo_valid_) {
    // The register only ever holds the sole pending event, with the ladder
    // and overflow drained.
    CCSIM_DCHECK_MSG(live_seen == 0 && dead_seen == 0 && top_.empty(),
                     "solo register active over a non-empty ladder");
    CCSIM_DCHECK_MSG(!head_valid_, "cached head alongside the solo register");
    check_entry(solo_);
    CCSIM_DCHECK_MSG(EntryLive(solo_), "solo register holds a dead event");
  }
  // The lane: pending entries in strictly increasing issued seqs (its FIFO
  // order is the (time, seq) order), each with a handle, reset when drained.
  CCSIM_DCHECK_MSG(lane_head_ < lane_.size() || lane_head_ == 0,
                   "drained same-time lane was not reset");
  std::uint64_t prev_seq = 0;
  for (std::size_t i = lane_head_; i < lane_.size(); ++i) {
    const LaneEntry& le = lane_[i];
    CCSIM_DCHECK_MSG(le.seq > prev_seq, "same-time lane out of seq order");
    CCSIM_DCHECK_MSG(le.seq < next_seq_, "lane entry with unissued seq");
    CCSIM_DCHECK_MSG(seqs.insert(le.seq).second,
                     "duplicate insertion seq in the calendar");
    CCSIM_DCHECK_MSG(le.resume != nullptr, "lane entry with a null handle");
    prev_seq = le.seq;
  }
  CCSIM_DCHECK_MSG(live_seen == live_,
                   "live-event count out of sync with the calendar");
  CCSIM_DCHECK_MSG(dead_seen == dead_,
                   "cancelled-entry count out of sync with the calendar");
  CCSIM_DCHECK_MSG(next_time_ == true_min,
                   "cached next-time out of sync with the true minimum");
  if (head_valid_) {
    CCSIM_DCHECK_MSG(head_.rung == depth_ - 1,
                     "cached head does not point at the deepest rung");
    const Rung& r = rungs_[head_.rung];
    CCSIM_DCHECK_MSG(head_.bucket < r.nbuckets &&
                         head_.index < r.buckets[head_.bucket].size(),
                     "cached head location out of range");
    const Entry& e = r.buckets[head_.bucket][head_.index];
    CCSIM_DCHECK_MSG(EntryLive(e) && e.time == next_time_ && e.key == min_key,
                     "cached head is not the earliest live event");
  }
  // The free list and the live slots partition the slab; free slots hold no
  // event payload.
  std::size_t free_len = 0;
  for (std::uint32_t i = free_head_; i != kNilSlot; i = slots_[i].next_free) {
    CCSIM_DCHECK_MSG(i < slots_.size(), "free list points outside the slab");
    CCSIM_DCHECK_MSG(live_slots.count(i) == 0, "live slot on the free list");
    CCSIM_DCHECK_MSG(slots_[i].pending_seq == 0,
                     "freed slot still claims a pending event");
    CCSIM_DCHECK_MSG(!static_cast<bool>(slots_[i].fn) &&
                         slots_[i].resume == nullptr,
                     "freed slot still holds an event payload");
    ++free_len;
    CCSIM_DCHECK_MSG(free_len <= slots_.size(), "free list cycle");
  }
  CCSIM_DCHECK_MSG(free_len + live_ == slots_.size(),
                   "slab slots neither live nor free");
}

}  // namespace ccsim::sim
