#include "ccsim/cc/lock_table.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "ccsim/sim/check.h"

namespace ccsim::cc {

namespace {
bool Conflicts(LockMode a, LockMode b) { return !Compatible(a, b); }
}  // namespace

LockTable::WaitQueue& LockTable::EnsureQueue(std::uint64_t key,
                                             Entry& entry) {
  if (!entry.queue) {
    entry.queue = std::make_unique<WaitQueue>();
    queued_keys_.insert(
        std::lower_bound(queued_keys_.begin(), queued_keys_.end(), key), key);
  }
  return *entry.queue;
}

void LockTable::PruneQueue(std::uint64_t key, Entry& entry) {
  if (!entry.queue || !entry.queue->empty()) return;
  entry.queue.reset();
  queued_keys_.erase(
      std::lower_bound(queued_keys_.begin(), queued_keys_.end(), key));
}

template <typename Fn>
void LockTable::ForEachBlocker(const Entry& entry, TxnId txn, LockMode mode,
                               bool is_upgrade, std::size_t ahead, Fn&& fn) {
  for (const Holder& h : entry.holders) {
    if (h.id == txn) continue;
    if (is_upgrade || Conflicts(h.mode, mode)) fn(h.txn);
  }
  for (std::size_t i = 0; i < ahead; ++i) {
    const Waiter& w = (*entry.queue)[i];
    if (Conflicts(w.mode, mode)) fn(w.txn);
  }
}

LockTable::Holder* LockTable::FindHolder(Entry& entry, TxnId txn) {
  for (Holder& h : entry.holders) {
    if (h.id == txn) return &h;
    if (h.id > txn) break;  // sorted
  }
  return nullptr;
}

const LockTable::Holder* LockTable::FindHolder(const Entry& entry, TxnId txn) {
  return FindHolder(const_cast<Entry&>(entry), txn);
}

void LockTable::InsertHolder(Entry& entry, TxnId txn, LockMode mode,
                             txn::TxnPtr handle) {
  std::size_t pos = 0;
  while (pos < entry.holders.size() && entry.holders[pos].id < txn) ++pos;
  entry.holders.insert(pos, Holder{txn, mode, std::move(handle)});
}

void LockTable::EraseHolder(Entry& entry, TxnId txn) {
  for (std::size_t i = 0; i < entry.holders.size(); ++i) {
    if (entry.holders[i].id == txn) {
      entry.holders.erase(i);
      return;
    }
  }
}

// ccsim-analyze: hot-path(once per page access of every transaction)
LockTable::RequestResult LockTable::Request(const txn::TxnPtr& txn,
                                            const PageRef& page,
                                            LockMode mode) {
  std::uint64_t key = page.Key();
  Entry& entry = entries_[key];
  TxnId id = txn->id();

  RequestResult result;
  result.completion = sim::MakeCompletion<AccessOutcome>(sim_);

  Holder* held = FindHolder(entry, id);
  bool is_upgrade = false;
  if (held != nullptr) {
    if (held->mode == LockMode::kExclusive || mode == LockMode::kShared) {
      // Re-request of an already-covered mode: trivially granted.
      result.granted_immediately = true;
      result.completion->Complete(AccessOutcome::kGranted);
      return result;
    }
    is_upgrade = true;  // holds kShared, wants kExclusive
    if (entry.holders.size() == 1) {
      // Sole holder: convert in place.
      held->mode = LockMode::kExclusive;
      result.granted_immediately = true;
      result.completion->Complete(AccessOutcome::kGranted);
      return result;
    }
  } else if (QueueSize(entry) == 0 || allow_queue_jump_) {
    bool compatible = true;
    for (const Holder& h : entry.holders) {
      if (Conflicts(h.mode, mode)) {
        compatible = false;
        break;
      }
    }
    if (compatible && allow_queue_jump_ && entry.holders.empty() &&
        QueueSize(entry) != 0) {
      // Nothing is held but waiters are pending (all blocked on each other
      // via queue order after a release): do not overtake them.
      compatible = false;
    }
    if (compatible) {
      InsertHolder(entry, id, mode, txn);
      txn_keys_[id].push_back(key);
      result.granted_immediately = true;
      result.completion->Complete(AccessOutcome::kGranted);
      return result;
    }
  }

  // Must wait. Upgrades wait at the front, after any upgrades already
  // queued.
  WaitQueue& queue = EnsureQueue(key, entry);
  std::size_t insert_pos = queue.size();
  if (is_upgrade) {
    insert_pos = 0;
    while (insert_pos < queue.size() && queue[insert_pos].is_upgrade) {
      ++insert_pos;
    }
  }
  for (std::size_t i = 0; i < insert_pos; ++i) {
    CCSIM_CHECK_MSG(queue[i].txn->id() != id,
                    "transaction enqueued twice on one lock");
  }
  ForEachBlocker(entry, id, mode, is_upgrade, insert_pos,
                 [&result](const txn::TxnPtr& blocker) {
                   result.blockers.push_back(blocker);
                 });

  queue.insert(insert_pos, Waiter{txn, mode, is_upgrade, result.completion,
                               sim_->Now()});
  ++waiting_count_;
  txn_keys_[id].push_back(key);
  AuditInvariants();
  return result;
}

bool LockTable::CanGrant(const Entry& entry, TxnId txn, LockMode mode) const {
  for (const Holder& h : entry.holders) {
    if (h.id == txn) continue;  // upgrade: ignore own shared hold
    if (Conflicts(h.mode, mode)) return false;
  }
  return true;
}

// ccsim-analyze: hot-path(runs on every release of a contended page)
void LockTable::PumpQueue(std::uint64_t key) {
  Entry* entry = entries_.Find(key);
  if (entry == nullptr) return;
  // Strict FIFO: grant only the compatible prefix of the queue. With queue
  // jumping: grant every waiter compatible with the current holders (the
  // "maximum concurrency" policy; readers can overtake queued writers).
  std::size_t scan = 0;
  while (scan < QueueSize(*entry)) {
    Waiter& w = (*entry->queue)[scan];
    if (!CanGrant(*entry, w.txn->id(), w.mode)) {
      if (!allow_queue_jump_) break;
      ++scan;
      continue;
    }
    Waiter granted = std::move(w);
    entry->queue->erase(scan);
    --waiting_count_;
    TxnId id = granted.txn->id();
    Holder* held = FindHolder(*entry, id);
    if (held != nullptr) {
      CCSIM_CHECK(granted.is_upgrade);
      held->mode = LockMode::kExclusive;
    } else {
      InsertHolder(*entry, id, granted.mode, granted.txn);
      // Waiting already registered this key in txn_keys_.
    }
    wait_times_.Record(sim_->Now() - granted.since);
    if (on_delayed_grant_) {
      PageRef page{static_cast<FileId>(key >> 32),
                   static_cast<int>(key & 0xffffffffu)};
      on_delayed_grant_(granted.txn, page, granted.mode);
    }
    granted.completion->Complete(AccessOutcome::kGranted);
  }
  PruneQueue(key, *entry);
  if (entry->holders.empty() && !entry->queue) entries_.Erase(key);
}

// ccsim-analyze: hot-path(once per commit/abort, over every held lock)
void LockTable::ReleaseAll(TxnId txn, bool abort_waiters) {
  KeyList* kit = txn_keys_.Find(txn);
  if (kit == nullptr) return;
  KeyList keys = std::move(*kit);
  txn_keys_.Erase(txn);
  // De-duplicate (a txn can both hold and wait-upgrade on one key).
  std::sort(keys.begin(), keys.end());
  keys.truncate(static_cast<std::size_t>(
      std::unique(keys.begin(), keys.end()) - keys.begin()));

  for (std::uint64_t key : keys) {
    Entry* entry = entries_.Find(key);
    if (entry == nullptr) continue;
    EraseHolder(*entry, txn);
    for (std::size_t i = 0; i < QueueSize(*entry);) {
      if ((*entry->queue)[i].txn->id() == txn) {
        CCSIM_CHECK_MSG(abort_waiters,
                        "commit released a lock with a pending request");
        --waiting_count_;
        (*entry->queue)[i].completion->Complete(AccessOutcome::kAborted);
        entry->queue->erase(i);
      } else {
        ++i;
      }
    }
    PruneQueue(key, *entry);
    PumpQueue(key);
    // PumpQueue may have erased the entry already; re-find and erase if
    // empty.
    entry = entries_.Find(key);
    if (entry != nullptr && entry->holders.empty() && !entry->queue) {
      entries_.Erase(key);
    }
  }
  AuditInvariants();
}

bool LockTable::CancelRequest(TxnId txn, const PageRef& page) {
  Entry* entry = entries_.Find(page.Key());
  if (entry == nullptr) return false;
  for (std::size_t i = 0; i < QueueSize(*entry); ++i) {
    if ((*entry->queue)[i].txn->id() != txn) continue;
    auto completion = (*entry->queue)[i].completion;
    entry->queue->erase(i);
    PruneQueue(page.Key(), *entry);
    --waiting_count_;
    completion->Complete(AccessOutcome::kAborted);
    PumpQueue(page.Key());
    entry = entries_.Find(page.Key());
    if (entry != nullptr && entry->holders.empty() && !entry->queue) {
      entries_.Erase(page.Key());
    }
    AuditInvariants();
    return true;
  }
  return false;
}

std::vector<WaitEdge> LockTable::WaitsForEdges() const {
  std::vector<WaitEdge> edges;
  // Only entries with a wait queue have edges. queued_keys_ is sorted, so
  // the edge list - and with it the cycle a graph built from it finds
  // first - does not depend on hash-table order.
  for (std::uint64_t key : queued_keys_) {
    const Entry& entry = *entries_.Find(key);
    for (std::size_t i = 0; i < entry.queue->size(); ++i) {
      const Waiter& w = (*entry.queue)[i];
      ForEachBlocker(entry, w.txn->id(), w.mode, w.is_upgrade, i,
                     [&edges, &w](const txn::TxnPtr& blocker) {
                       edges.push_back(WaitEdge{w.txn->id(),
                                                w.txn->initial_ts(),
                                                blocker->id(),
                                                blocker->initial_ts()});
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
  const KeyList* kit = txn_keys_.Find(txn);
  if (kit == nullptr) return;
  key_scratch_.assign(kit->begin(), kit->end());
  std::sort(key_scratch_.begin(), key_scratch_.end());
  key_scratch_.erase(std::unique(key_scratch_.begin(), key_scratch_.end()),
                     key_scratch_.end());
  for (std::uint64_t key : key_scratch_) {
    const Entry* entry = entries_.Find(key);
    if (entry == nullptr || !entry->queue) continue;
    for (std::size_t i = 0; i < entry->queue->size(); ++i) {
      const Waiter& w = (*entry->queue)[i];
      if (w.txn->id() != txn) continue;
      ForEachBlocker(*entry, txn, w.mode, w.is_upgrade, i,
                     [&out](const txn::TxnPtr& blocker) {
                       out.push_back(
                           WaitNode{blocker->id(), blocker->initial_ts()});
                     });
      break;  // a transaction is queued at most once per lock
    }
  }
}

bool LockTable::IsWaiting(TxnId txn) const {
  const KeyList* kit = txn_keys_.Find(txn);
  if (kit == nullptr) return false;
  for (std::uint64_t key : *kit) {
    const Entry* entry = entries_.Find(key);
    if (entry == nullptr || !entry->queue) continue;
    for (const Waiter& w : *entry->queue) {
      if (w.txn->id() == txn) return true;
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
    CCSIM_DCHECK_MSG(!entry.holders.empty() || QueueSize(entry) != 0,
                     "empty lock entry not erased");
    CCSIM_DCHECK_MSG(!entry.queue || !entry.queue->empty(),
                     "empty wait queue not pruned");
    if (entry.queue) {
      ++with_queue;
      CCSIM_DCHECK_MSG(std::binary_search(queued_keys_.begin(),
                                          queued_keys_.end(), key),
                       "entry with a wait queue missing from queued_keys_");
    }
    bool any_exclusive = false;
    for (std::size_t i = 0; i < entry.holders.size(); ++i) {
      const Holder& h = entry.holders[i];
      CCSIM_DCHECK_MSG(h.txn != nullptr,
                       "holder without a live transaction handle");
      CCSIM_DCHECK_MSG(i == 0 || entry.holders[i - 1].id < h.id,
                       "holders not sorted by TxnId");
      if (h.mode == LockMode::kExclusive) any_exclusive = true;
      const KeyList* kit = txn_keys_.Find(h.id);
      CCSIM_DCHECK_MSG(
          kit != nullptr &&
              std::find(kit->begin(), kit->end(), key) != kit->end(),
          "holder not registered in txn_keys_");
    }
    CCSIM_DCHECK_MSG(!any_exclusive || entry.holders.size() == 1,
                     "exclusive lock shared with another holder");

    queued += QueueSize(entry);
    bool past_upgrade_prefix = false;
    for (std::size_t i = 0; i < QueueSize(entry); ++i) {
      const Waiter& w = (*entry.queue)[i];
      TxnId id = w.txn->id();
      if (!w.is_upgrade) {
        past_upgrade_prefix = true;
      } else {
        CCSIM_DCHECK_MSG(!past_upgrade_prefix,
                         "upgrade queued behind a non-upgrade waiter");
        CCSIM_DCHECK_MSG(FindHolder(entry, id) != nullptr,
                         "queued upgrade whose shared hold vanished");
      }
      // "No granted/waiting overlap": only an upgrade may appear on both
      // sides of one entry.
      CCSIM_DCHECK_MSG(w.is_upgrade || FindHolder(entry, id) == nullptr,
                       "transaction both holds and waits on one page");
      for (std::size_t j = i + 1; j < QueueSize(entry); ++j) {
        CCSIM_DCHECK_MSG((*entry.queue)[j].txn->id() != id,
                         "transaction queued twice on one lock");
      }
      const KeyList* kit = txn_keys_.Find(id);
      CCSIM_DCHECK_MSG(
          kit != nullptr &&
              std::find(kit->begin(), kit->end(), key) != kit->end(),
          "waiter not registered in txn_keys_");
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
                   "queued_keys_ lists an entry without a wait queue");
}

}  // namespace ccsim::cc
