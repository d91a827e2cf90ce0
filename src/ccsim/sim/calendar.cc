#include "ccsim/sim/calendar.h"

#include <algorithm>
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
  pending_seq_.push_back(0);
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Calendar::FreeSlot(std::uint32_t index) {
  Slot& s = slots_[index];
  s.fn.Reset();
  s.resume = nullptr;
  pending_seq_[index] = 0;  // kills this slot's queue entry (lazy deletion)
  ++s.gen;                  // invalidates every outstanding id for this slot
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

void Calendar::InsertIntoRung(Rung& r, Entry e) {
  std::uint32_t b = BucketIndex(r, e.time);
  std::vector<Entry>& bucket = r.buckets[b];
  if (bucket.empty()) SetBit(r, b);
  bucket.push_back(e);
  ++r.count;
  if (b < r.cur) r.cur = b;
}

void Calendar::Place(Entry e) {
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
      InsertIntoRung(r0, e);
      return;
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
      return;
    }
    Rung& r = rungs_[0];
    ShapeRung(r, last_fired_, width, kDefaultBuckets);
    r.horizon = horizon;
    depth_ = 1;
    InsertIntoRung(r, e);
    return;
  }
  Rung& deepest = rungs_[depth_ - 1];
  if (t < deepest.horizon) {
    if (t >= deepest.base) {
      InsertIntoRung(deepest, e);
      return;
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
    InsertIntoRung(under, e);
    return;
  }
  for (std::size_t d = depth_ - 1; d-- > 0;) {
    Rung& r = rungs_[d];
    if (t < r.horizon) {
      InsertIntoRung(r, e);
      return;
    }
  }
  top_.push_back(e);
  if (t < top_min_) top_min_ = t;
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

bool Calendar::OpenChildRung(SimTime lo, SimTime hi) {
  if (lo == hi) return false;             // all ties: taken in seq order
  if (depth_ >= kMaxRungs) return false;  // pathological depth: degrade
  double width = std::max((hi - lo) / static_cast<double>(kChildBuckets),
                          kMinWidth);
  Rung& child = rungs_[depth_];
  ShapeRung(child, lo, width, kChildBuckets);
  // Exact horizon: events later than hi belong to the span being refined,
  // and must not be captured by the child.
  child.horizon = NextUp(hi);
  ++depth_;
  return true;
}

bool Calendar::SplitBucket(Rung& r, std::uint32_t b) {
  std::vector<Entry>& bucket = r.buckets[b];
  SimTime lo = bucket[0].time;
  SimTime hi = bucket[0].time;
  for (const Entry& e : bucket) {
    if (e.time < lo) lo = e.time;
    if (e.time > hi) hi = e.time;
  }
  if (!OpenChildRung(lo, hi)) return false;
  Rung& child = rungs_[depth_ - 1];
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
  std::size_t total = bottom_.capacity();
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

// ccsim-analyze: hot-path(runs whenever the bottom list drains; amortized O(1) per event)
bool Calendar::Refill() {
  CCSIM_DCHECK(bottom_.empty() && bottom_head_ == 0);
  for (;;) {
    while (depth_ > 0 && rungs_[depth_ - 1].count == 0) --depth_;
    if (depth_ == 0) {
      if (top_.empty()) {
        next_time_ = kNever;
        return false;
      }
      Rebase();
      continue;
    }
    Rung& r = rungs_[depth_ - 1];
    std::uint32_t b = FirstOccupied(r);
    r.cur = b;
    std::vector<Entry>& bucket = r.buckets[b];
    // Compact lazily-cancelled entries out of the bucket.
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
    if (bucket.size() <= kSplitMax) {
      // Insertion-sorted as it is copied: for a bucket this small that
      // beats a copy and a sort call (most hold one or two entries).
      for (const Entry& e : bucket) {
        std::size_t i = bottom_.size();
        bottom_.push_back(e);
        for (; i > 0 && Earlier(e, bottom_[i - 1]); --i) {
          bottom_[i] = bottom_[i - 1];
        }
        bottom_[i] = e;
      }
    } else {
      bottom_.assign(bucket.begin(), bucket.end());
      std::sort(bottom_.begin(), bottom_.end(), Earlier);
    }
    r.count -= bucket.size();
    // A bucket keeps small storage for its next visit. Storage past twice
    // the list's spill bound was grown by a burst and would sit idle.
    if (bucket.capacity() > 2 * kBottomMax) {
      std::vector<Entry>().swap(bucket);
    } else {
      bucket.clear();
    }
    ClearBit(r, b);
    next_time_ = bottom_.front().time;
    return true;
  }
}

// ccsim-analyze: hot-path(every pop and every cancel at the head time runs it)
void Calendar::SettleFront() {
  while (bottom_head_ < bottom_.size() &&
         !EntryLive(bottom_[bottom_head_])) {
    ++bottom_head_;
    CCSIM_DCHECK(dead_ > 0);
    --dead_;
  }
  if (bottom_head_ < bottom_.size()) {
    next_time_ = bottom_[bottom_head_].time;
    return;
  }
  bottom_.clear();
  bottom_head_ = 0;
  if (live_ == 0 && dead_ == 0) {
    // Every bucket and the overflow list are empty (each physical entry is
    // live or cancelled-pending-compaction): skip the refill walk. Collapse
    // the stack so the next schedule can revive or re-anchor the bottom
    // rung — keeping a drained refinement rung active would shrink the
    // routing horizon to its sliver of time and overflow everything after
    // it.
    depth_ = 0;
    next_time_ = kNever;
    return;
  }
  Refill();
}

// ccsim-analyze: hot-path(a schedule no later than the bottom list's last entry)
void Calendar::InsertIntoBottom(Entry e) {
  std::size_t pending = bottom_.size() - bottom_head_;
  if (bottom_head_ >= pending && bottom_.size() == bottom_.capacity()) {
    // Reuse the popped prefix instead of growing: each popped entry pays
    // for at most one move here, and storage stays within twice the
    // pending count.
    bottom_.erase(bottom_.begin(),
                  bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_head_));
    bottom_head_ = 0;
  }
  // The new entry has the largest seq issued so far, so it goes behind
  // every entry at its time.
  bottom_.push_back(e);
  std::size_t i = bottom_.size() - 1;
  while (i > bottom_head_ && e.time < bottom_[i - 1].time) {
    bottom_[i] = bottom_[i - 1];
    --i;
  }
  bottom_[i] = e;
  if (i == bottom_head_) next_time_ = e.time;
  if (pending + 1 <= kBottomMax) return;
  // Too long to keep inserting into: spill it into a child rung spanning
  // its times, exactly as an oversized bucket splits, and refill from it.
  if (!OpenChildRung(bottom_[bottom_head_].time, bottom_.back().time)) return;
  Rung& child = rungs_[depth_ - 1];
  for (std::size_t k = bottom_head_; k < bottom_.size(); ++k) {
    if (EntryLive(bottom_[k])) {
      InsertIntoRung(child, bottom_[k]);
    } else {
      CCSIM_DCHECK(dead_ > 0);
      --dead_;
    }
  }
  bottom_.clear();
  bottom_head_ = 0;
  Refill();
}

std::uint32_t Calendar::ClaimSlot(SimTime time) {
  CCSIM_CHECK_MSG(time == time, "event scheduled at NaN time");
  CCSIM_CHECK_MSG(time < kNever, "event scheduled at infinite time");
  CCSIM_CHECK_MSG(time >= last_fired_, "event scheduled in the simulated past");
  return AllocSlot();
}

Calendar::EventId Calendar::ScheduleSlot(SimTime time, std::uint32_t slot) {
  CCSIM_CHECK_MSG(next_seq_ < kMaxSeq, "calendar event seq space exhausted");
  std::uint64_t seq = next_seq_++;
  Slot& s = slots_[slot];
  pending_seq_[slot] = seq;
  s.time = time;
  Entry e{time, (seq << kSlotBits) | slot};
  if (live_ == 0) {
    // An empty calendar (a pop or cancel that leaves no live event drains
    // every cancelled entry too): the event is the whole bottom list.
    CCSIM_DCHECK(bottom_.empty() && dead_ == 0 && depth_ == 0);
    bottom_.push_back(e);
    next_time_ = time;
  } else if (time <= bottom_.back().time) {
    InsertIntoBottom(e);
  } else {
    Place(e);
  }
  ++live_;
  MaybeAudit();
  return MakeId(s.gen, slot);
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
      pending_seq_[slot] == 0) {
    return false;
  }
  CCSIM_CHECK_MSG(slots_[slot].resume == nullptr,
                  "cancelled a coroutine wakeup event");
  SimTime time = slots_[slot].time;
  FreeSlot(slot);
  CCSIM_CHECK(live_ > 0);
  --live_;
  // The queue entry goes stale and is dropped when it is reached. An event
  // at the head time sits in the bottom list and may be its front, which
  // must stay live.
  ++dead_;
  if (time == next_time_) SettleFront();
  MaybeAudit();
  return true;
}

// ccsim-analyze: hot-path(the event-loop dequeue; runs once per event)
bool Calendar::Pop(Fired* out) {
  // The lane front wins unless the list front ties it at last_fired_ with a
  // smaller seq. next_time_ is the exact ladder minimum and never below
  // last_fired_, so a ladder that is empty or later loses.
  if (!lane_.empty() &&
      (next_time_ != last_fired_ ||
       bottom_[bottom_head_].seq() > lane_[lane_head_].seq)) {
    const LaneEntry& le = lane_[lane_head_];
    out->time = last_fired_;
    out->kind = EventKind::kResume;
    out->fn.Reset();
    out->resume = le.resume;
    out->token = le.token;
    if (++lane_head_ == lane_.size()) {
      lane_.clear();
      lane_head_ = 0;
    }
    MaybeAudit();
    return true;
  }
  if (live_ == 0) return false;
  const Entry e = bottom_[bottom_head_++];
  Slot& s = slots_[e.slot()];
  CCSIM_DCHECK_MSG(EntryLive(e), "bottom list front was not live");
  out->time = e.time;
  if (s.resume != nullptr) {
    out->kind = EventKind::kResume;
    out->fn.Reset();
    out->resume = s.resume;
    out->token = s.token;
  } else {
    out->kind = EventKind::kHandler;
    out->fn = std::move(s.fn);
  }
  FreeSlot(e.slot());
  --live_;
  CCSIM_DCHECK_MSG(e.time >= last_fired_, "simulated time ran backwards");
  if (e.time > last_fired_) last_gap_ = e.time - last_fired_;
  last_fired_ = e.time;
  SettleFront();
  MaybeAudit();
  return true;
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
  // The bottom list: pending entries sorted by (time, seq), a live front
  // whenever a live ladder event exists, reset when drained, and strictly
  // earlier than every live rung and overflow event (checked against the
  // minimum gathered above, before the list's own entries join it).
  const std::size_t pending = bottom_.size() - bottom_head_;
  CCSIM_DCHECK_MSG(bottom_head_ < bottom_.size() || bottom_head_ == 0,
                   "drained bottom list was not reset");
  CCSIM_DCHECK_MSG((pending > 0) == (live_ > 0),
                   "bottom list empty while live events are pending, or "
                   "the reverse");
  if (pending > 0) {
    CCSIM_DCHECK_MSG(EntryLive(bottom_[bottom_head_]),
                     "bottom list front is not live");
    CCSIM_DCHECK_MSG(true_min > bottom_.back().time,
                     "ladder event no later than the bottom list's last");
  }
  for (std::size_t i = bottom_head_; i < bottom_.size(); ++i) {
    if (i > bottom_head_) {
      CCSIM_DCHECK_MSG(Earlier(bottom_[i - 1], bottom_[i]),
                       "bottom list out of (time, seq) order");
    }
    check_entry(bottom_[i]);
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
  if (pending > 0) {
    CCSIM_DCHECK_MSG(bottom_[bottom_head_].key == min_key,
                     "bottom list front is not the earliest live event");
  }
  // The free list and the live slots partition the slab; free slots hold no
  // event payload.
  std::size_t free_len = 0;
  for (std::uint32_t i = free_head_; i != kNilSlot; i = slots_[i].next_free) {
    CCSIM_DCHECK_MSG(i < slots_.size(), "free list points outside the slab");
    CCSIM_DCHECK_MSG(live_slots.count(i) == 0, "live slot on the free list");
    CCSIM_DCHECK_MSG(pending_seq_[i] == 0,
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
