#include "ccsim/cc/lock_table.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "ccsim/sim/check.h"

namespace ccsim::cc {

namespace {
bool Conflicts(LockMode a, LockMode b) { return !Compatible(a, b); }
}  // namespace

LockTable::Crowd& LockTable::EnsureCrowd(Entry& entry) {
  if (!entry.crowd) {
    entry.crowd = std::make_unique<Crowd>();
    entry.crowd->holders.push_back(entry.solo);
  }
  return *entry.crowd;
}

void LockTable::PushWaiter(std::uint64_t key, Crowd& crowd, std::size_t pos,
                           Waiter waiter) {
  if (crowd.queue.empty()) {
    queued_keys_.insert(
        std::lower_bound(queued_keys_.begin(), queued_keys_.end(), key), key);
  }
  crowd.queue.insert(pos, std::move(waiter));
  ++waiting_count_;
}

LockTable::Waiter LockTable::PopWaiter(std::uint64_t key, Crowd& crowd,
                                       std::size_t pos) {
  Waiter waiter = std::move(crowd.queue[pos]);
  crowd.queue.erase(pos);
  --waiting_count_;
  if (crowd.queue.empty()) {
    queued_keys_.erase(
        std::lower_bound(queued_keys_.begin(), queued_keys_.end(), key));
  }
  return waiter;
}

template <typename Fn>
void LockTable::ForEachBlocker(const Entry& entry, TxnId txn, LockMode mode,
                               bool is_upgrade, std::size_t ahead, Fn&& fn) {
  for (const Holder& h : Holders(entry)) {
    if (h.id == txn) continue;
    if (is_upgrade || Conflicts(h.mode, mode)) fn(h.id);
  }
  for (std::size_t i = 0; i < ahead; ++i) {
    const Waiter& w = entry.crowd->queue[i];
    if (Conflicts(w.mode, mode)) fn(w.id);
  }
}

LockTable::Holder* LockTable::FindHolder(Entry& entry, TxnId txn) {
  for (Holder& h : Holders(entry)) {
    if (h.id == txn) return &h;
    if (h.id > txn) break;  // sorted
  }
  return nullptr;
}

const LockTable::Holder* LockTable::FindHolder(const Entry& entry, TxnId txn) {
  return FindHolder(const_cast<Entry&>(entry), txn);
}

void LockTable::InsertHolder(Entry& entry, TxnId txn, LockMode mode) {
  auto& holders = EnsureCrowd(entry).holders;
  std::size_t pos = 0;
  while (pos < holders.size() && holders[pos].id < txn) ++pos;
  holders.insert(pos, Holder{txn, mode});
}

const txn::TxnPtr& LockTable::Handle(TxnId id) const {
  const txn::TxnPtr* handle = registry_.Find(id);
  CCSIM_CHECK_MSG(handle != nullptr, "lock-table transaction not registered");
  return *handle;
}

// ccsim-analyze: hot-path(once per page access of every transaction)
LockTable::RequestResult LockTable::Request(const txn::TxnPtr& txn,
                                            const PageRef& page,
                                            LockMode mode) {
  std::uint64_t key = page.Key();
  TxnId id = txn->id();
  Register(txn);

  RequestResult result;
  result.completion = sim::MakeCompletion<AccessOutcome>(sim_);

  Entry* entry = entries_.Find(key);
  if (entry == nullptr) {
    // Nobody holds or waits on the page.
    entries_.TryEmplace(key, Entry{Holder{id, mode}, nullptr});
    result.granted_immediately = true;
    result.completion->Complete(AccessOutcome::kGranted);
    return result;
  }

  Holder* held = FindHolder(*entry, id);
  bool is_upgrade = false;
  if (held != nullptr) {
    if (held->mode == LockMode::kExclusive || mode == LockMode::kShared) {
      // Re-request of an already-covered mode: trivially granted.
      result.granted_immediately = true;
      result.completion->Complete(AccessOutcome::kGranted);
      return result;
    }
    is_upgrade = true;  // holds kShared, wants kExclusive
    if (Holders(*entry).size() == 1) {
      // Sole holder: convert in place.
      held->mode = LockMode::kExclusive;
      result.granted_immediately = true;
      result.completion->Complete(AccessOutcome::kGranted);
      return result;
    }
  } else if (QueueSize(*entry) == 0 || allow_queue_jump_) {
    bool compatible = true;
    for (const Holder& h : Holders(*entry)) {
      if (Conflicts(h.mode, mode)) {
        compatible = false;
        break;
      }
    }
    if (compatible && allow_queue_jump_ && Holders(*entry).empty() &&
        QueueSize(*entry) != 0) {
      // Nothing is held but waiters are pending (all blocked on each other
      // via queue order after a release): do not overtake them.
      compatible = false;
    }
    if (compatible) {
      InsertHolder(*entry, id, mode);
      result.granted_immediately = true;
      result.completion->Complete(AccessOutcome::kGranted);
      return result;
    }
  }

  // Must wait. Upgrades wait at the front, after any upgrades already
  // queued.
  Crowd& crowd = EnsureCrowd(*entry);
  WaitQueue& queue = crowd.queue;
  std::size_t insert_pos = queue.size();
  if (is_upgrade) {
    insert_pos = 0;
    while (insert_pos < queue.size() && queue[insert_pos].is_upgrade) {
      ++insert_pos;
    }
  }
  for (std::size_t i = 0; i < insert_pos; ++i) {
    CCSIM_CHECK_MSG(queue[i].id != id,
                    "transaction enqueued twice on one lock");
  }
  ForEachBlocker(*entry, id, mode, is_upgrade, insert_pos,
                 [this, &result](TxnId blocker) {
                   result.blockers.push_back(Handle(blocker));
                 });

  PushWaiter(key, crowd, insert_pos,
             Waiter{id, mode, is_upgrade, result.completion, sim_->Now()});
  AuditInvariants();
  return result;
}

bool LockTable::CanGrant(const Entry& entry, TxnId txn, LockMode mode) const {
  for (const Holder& h : Holders(entry)) {
    if (h.id == txn) continue;  // upgrade: ignore own shared hold
    if (Conflicts(h.mode, mode)) return false;
  }
  return true;
}

// ccsim-analyze: hot-path(runs on every release of a contended page)
void LockTable::PumpQueue(std::uint64_t key) {
  Entry* entry = entries_.Find(key);
  if (entry == nullptr || !entry->crowd) return;
  Crowd& crowd = *entry->crowd;
  // Strict FIFO: grant only the compatible prefix of the queue. With queue
  // jumping: grant every waiter compatible with the current holders (the
  // "maximum concurrency" policy; readers can overtake queued writers).
  std::size_t scan = 0;
  while (scan < crowd.queue.size()) {
    const Waiter& w = crowd.queue[scan];
    if (!CanGrant(*entry, w.id, w.mode)) {
      if (!allow_queue_jump_) break;
      ++scan;
      continue;
    }
    Waiter granted = PopWaiter(key, crowd, scan);
    Holder* held = FindHolder(*entry, granted.id);
    if (held != nullptr) {
      CCSIM_CHECK(granted.is_upgrade);
      held->mode = LockMode::kExclusive;
    } else {
      InsertHolder(*entry, granted.id, granted.mode);
    }
    wait_times_.Record(sim_->Now() - granted.since);
    if (on_delayed_grant_) {
      PageRef page{static_cast<FileId>(key >> 32),
                   static_cast<int>(key & 0xffffffffu)};
      on_delayed_grant_(Handle(granted.id), page, granted.mode);
    }
    granted.completion->Complete(AccessOutcome::kGranted);
  }
  // Back to the resting shape.
  if (!crowd.queue.empty() || crowd.holders.size() > 1) return;
  if (crowd.holders.empty()) {
    entries_.Erase(key);
    return;
  }
  entry->solo = crowd.holders[0];
  entry->crowd.reset();
}

// ccsim-analyze: hot-path(once per commit/abort, over the cohort's pages)
void LockTable::ReleaseAll(TxnId txn,
                           std::span<const workload::PageAccess> accesses,
                           bool abort_waiters) {
  key_scratch_.clear();
  for (const workload::PageAccess& access : accesses) {
    key_scratch_.push_back(access.page.Key());
  }
  std::sort(key_scratch_.begin(), key_scratch_.end());
  key_scratch_.erase(std::unique(key_scratch_.begin(), key_scratch_.end()),
                     key_scratch_.end());

  for (std::uint64_t key : key_scratch_) {
    Entry* entry = entries_.Find(key);
    if (entry == nullptr) continue;
    if (!entry->crowd) {
      // A sole holder with nobody waiting: nothing to wake.
      if (entry->solo.id == txn) entries_.Erase(key);
      continue;
    }
    Crowd& crowd = *entry->crowd;
    bool touched = false;
    for (std::size_t i = 0; i < crowd.holders.size(); ++i) {
      if (crowd.holders[i].id == txn) {
        crowd.holders.erase(i);
        touched = true;
        break;
      }
    }
    for (std::size_t i = 0; i < crowd.queue.size();) {
      if (crowd.queue[i].id == txn) {
        CCSIM_CHECK_MSG(abort_waiters,
                        "commit released a lock with a pending request");
        PopWaiter(key, crowd, i).completion->Complete(AccessOutcome::kAborted);
        touched = true;
      } else {
        ++i;
      }
    }
    if (touched) PumpQueue(key);
  }
  registry_.Erase(txn);
  AuditInvariants();
}

bool LockTable::CancelRequest(TxnId txn, const PageRef& page) {
  const std::uint64_t key = page.Key();
  Entry* entry = entries_.Find(key);
  if (entry == nullptr || !entry->crowd) return false;
  Crowd& crowd = *entry->crowd;
  for (std::size_t i = 0; i < crowd.queue.size(); ++i) {
    if (crowd.queue[i].id != txn) continue;
    PopWaiter(key, crowd, i).completion->Complete(AccessOutcome::kAborted);
    PumpQueue(key);
    AuditInvariants();
    return true;
  }
  return false;
}

std::vector<WaitEdge> LockTable::WaitsForEdges() const {
  std::vector<WaitEdge> edges;
  // Only entries with waiters have edges. queued_keys_ is sorted, so the
  // edge list - and with it the cycle a graph built from it finds first -
  // does not depend on hash-table order.
  for (std::uint64_t key : queued_keys_) {
    const Entry& entry = *entries_.Find(key);
    const WaitQueue& queue = entry.crowd->queue;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      const Waiter& w = queue[i];
      const WaitNode waiter = NodeOf(w.id);
      ForEachBlocker(entry, w.id, w.mode, w.is_upgrade, i,
                     [this, &edges, &waiter](TxnId blocker) {
                       const WaitNode holder = NodeOf(blocker);
                       edges.push_back(WaitEdge{waiter.id, waiter.ts,
                                                holder.id, holder.ts});
                     });
    }
  }
  return edges;
}

// ccsim-analyze: hot-path(once per blocked request)
const std::vector<WaitNode>& LockTable::FindCycleFrom(
    const txn::Transaction& txn) {
  return search_.Find(WaitNode{txn.id(), txn.initial_ts()},
                      [this](TxnId id, std::vector<WaitNode>& out) {
                        AppendWaitsFor(id, out);
                      });
}

// ccsim-analyze: hot-path(once per transaction a deadlock search reaches)
void LockTable::AppendWaitsFor(TxnId txn, std::vector<WaitNode>& out) {
  for (std::uint64_t key : queued_keys_) {
    const Entry& entry = *entries_.Find(key);
    const WaitQueue& queue = entry.crowd->queue;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      const Waiter& w = queue[i];
      if (w.id != txn) continue;
      ForEachBlocker(entry, txn, w.mode, w.is_upgrade, i,
                     [this, &out](TxnId blocker) {
                       out.push_back(NodeOf(blocker));
                     });
      break;  // a transaction is queued at most once per lock
    }
  }
}

bool LockTable::IsWaiting(TxnId txn) const {
  for (std::uint64_t key : queued_keys_) {
    for (const Waiter& w : entries_.Find(key)->crowd->queue) {
      if (w.id == txn) return true;
    }
  }
  return false;
}

bool LockTable::HoldsLock(TxnId txn, const PageRef& page) const {
  const Entry* entry = entries_.Find(page.Key());
  if (entry == nullptr) return false;
  return FindHolder(*entry, txn) != nullptr;
}

void LockTable::AuditInvariants() const {
  if (!sim::kAuditEnabled) return;
  std::size_t queued = 0;
  std::size_t with_queue = 0;
  // Audit sweep in table order; per-entry checks are independent.
  // ccsim-analyze: unordered-iter-ok(order-independent pass/fail checks)
  entries_.ForEach([&](std::uint64_t key, const Entry& entry) {
    const std::size_t num_queued = QueueSize(entry);
    CCSIM_DCHECK_MSG(!entry.crowd || entry.crowd->holders.size() > 1 ||
                         num_queued != 0,
                     "lock entry kept its crowd without needing it");
    if (num_queued != 0) {
      ++with_queue;
      CCSIM_DCHECK_MSG(std::binary_search(queued_keys_.begin(),
                                          queued_keys_.end(), key),
                       "entry with waiters missing from queued_keys_");
    }
    const auto holders = Holders(entry);
    bool any_exclusive = false;
    for (std::size_t i = 0; i < holders.size(); ++i) {
      const Holder& h = holders[i];
      CCSIM_DCHECK_MSG(registry_.Contains(h.id),
                       "holder not registered with the lock table");
      CCSIM_DCHECK_MSG(i == 0 || holders[i - 1].id < h.id,
                       "holders not sorted by TxnId");
      if (h.mode == LockMode::kExclusive) any_exclusive = true;
    }
    CCSIM_DCHECK_MSG(!any_exclusive || holders.size() == 1,
                     "exclusive lock shared with another holder");

    queued += num_queued;
    bool past_upgrade_prefix = false;
    for (std::size_t i = 0; i < num_queued; ++i) {
      const Waiter& w = entry.crowd->queue[i];
      CCSIM_DCHECK_MSG(registry_.Contains(w.id),
                       "waiter not registered with the lock table");
      if (!w.is_upgrade) {
        past_upgrade_prefix = true;
      } else {
        CCSIM_DCHECK_MSG(!past_upgrade_prefix,
                         "upgrade queued behind a non-upgrade waiter");
        CCSIM_DCHECK_MSG(FindHolder(entry, w.id) != nullptr,
                         "queued upgrade whose shared hold vanished");
      }
      // "No granted/waiting overlap": only an upgrade may appear on both
      // sides of one entry.
      CCSIM_DCHECK_MSG(w.is_upgrade || FindHolder(entry, w.id) == nullptr,
                       "transaction both holds and waits on one page");
      for (std::size_t j = i + 1; j < num_queued; ++j) {
        CCSIM_DCHECK_MSG(entry.crowd->queue[j].id != w.id,
                         "transaction queued twice on one lock");
      }
    }
  });
  CCSIM_DCHECK_MSG(queued == waiting_count_,
                   "waiting_count_ out of sync with lock queues");
  // Every queued entry is listed and the list is strictly ascending, so
  // equal counts mean it lists nothing else.
  CCSIM_DCHECK_MSG(std::adjacent_find(queued_keys_.begin(), queued_keys_.end(),
                                      std::greater_equal<>()) ==
                       queued_keys_.end(),
                   "queued_keys_ not strictly ascending");
  CCSIM_DCHECK_MSG(with_queue == queued_keys_.size(),
                   "queued_keys_ lists an entry without waiters");
}

}  // namespace ccsim::cc
