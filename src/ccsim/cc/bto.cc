#include "ccsim/cc/bto.h"

#include <algorithm>

#include "ccsim/sim/check.h"

namespace ccsim::cc {

std::shared_ptr<sim::Completion<AccessOutcome>> BtoManager::RequestAccess(
    const txn::TxnPtr& txn, int cohort_index, const PageRef& page,
    AccessMode mode) {
  (void)cohort_index;
  auto& sim = ctx_->simulation();
  auto completion = sim::MakeCompletion<AccessOutcome>(&sim);
  Timestamp ts = txn->attempt_ts();
  std::uint64_t key = page.Key();
  Item& item = items_[key];

  if (mode == AccessMode::kRead) {
    if (ts < item.wts) {
      ++rejections_;
      completion->Complete(AccessOutcome::kAborted);
      return completion;
    }
    bool blocked = std::any_of(
        item.pending_writes.begin(), item.pending_writes.end(),
        [&](const PendingWrite& pw) { return pw.ts < ts; });
    if (blocked) {
      item.blocked_reads.push_back(BlockedRead{ts, txn, completion, sim.Now()});
      ++blocked_readers_;
      return completion;
    }
    if (item.rts < ts) item.rts = ts;
    ctx_->AuditRead(*txn, page);
    completion->Complete(AccessOutcome::kGranted);
    return completion;
  }

  // Write request.
  if (ts < item.rts) {
    ++rejections_;
    completion->Complete(AccessOutcome::kAborted);
    return completion;
  }
  if (ts < item.wts) {
    // Thomas write rule: granted, but the value will never become visible.
    ++thomas_skips_;
    completion->Complete(AccessOutcome::kGranted);
    return completion;
  }
  auto pos = std::upper_bound(
      item.pending_writes.begin(), item.pending_writes.end(), ts,
      [](const Timestamp& t, const PendingWrite& pw) { return t < pw.ts; });
  item.pending_writes.insert(pos, PendingWrite{ts, txn});
  completion->Complete(AccessOutcome::kGranted);
  return completion;
}

void BtoManager::ReevaluateBlockedReads(std::uint64_t key) {
  auto iit = items_.find(key);
  if (iit == items_.end()) return;
  Item& item = iit->second;
  if (item.blocked_reads.empty()) return;

  // Grant in ascending timestamp order for fairness.
  std::stable_sort(item.blocked_reads.begin(), item.blocked_reads.end(),
                   [](const BlockedRead& a, const BlockedRead& b) {
                     return a.ts < b.ts;
                   });
  auto& sim = ctx_->simulation();
  std::vector<BlockedRead> still_blocked;
  for (auto& br : item.blocked_reads) {
    if (br.ts < item.wts) {
      // A later pending write committed first; this read is now out of order.
      ++rejections_;
      --blocked_readers_;
      br.completion->Complete(AccessOutcome::kAborted);
      continue;
    }
    bool blocked = std::any_of(
        item.pending_writes.begin(), item.pending_writes.end(),
        [&](const PendingWrite& pw) { return pw.ts < br.ts; });
    if (blocked) {
      still_blocked.push_back(std::move(br));
      continue;
    }
    if (item.rts < br.ts) item.rts = br.ts;
    wait_times_.Record(sim.Now() - br.since);
    --blocked_readers_;
    ctx_->AuditRead(*br.txn, PageRef::FromKey(key));
    br.completion->Complete(AccessOutcome::kGranted);
  }
  item.blocked_reads = std::move(still_blocked);
}

void BtoManager::CommitCohort(const txn::TxnPtr& txn, int cohort_index) {
  // Every access was requested before READY, so each write access holds
  // either this transaction's pending write or a Thomas-rule grant.
  for (const workload::PageAccess& access :
       txn->cohort_spec(cohort_index).accesses) {
    if (!access.is_write) continue;
    const std::uint64_t key = access.page.Key();
    Item& item = items_.at(key);
    auto pw = std::find_if(
        item.pending_writes.begin(), item.pending_writes.end(),
        [&](const PendingWrite& p) { return p.txn->id() == txn->id(); });
    if (pw == item.pending_writes.end()) {
      // Granted under the Thomas write rule: never installed.
      ctx_->AuditSkippedWrite(*txn, access.page);
      continue;
    }
    Timestamp ts = pw->ts;
    item.pending_writes.erase(pw);
    if (ts > item.wts) {
      item.wts = ts;
      ctx_->AuditInstallWrite(*txn, access.page);
    } else {
      // A later write was installed while this one was pending.
      ctx_->AuditSkippedWrite(*txn, access.page);
    }
    ReevaluateBlockedReads(key);
  }
}

void BtoManager::AbortCohort(const txn::TxnPtr& txn, int cohort_index) {
  // The abort may come before the cohort reached some of its accesses, so
  // both passes touch only entries of this transaction. First drop its
  // pending writes (never installed)...
  const auto& accesses = txn->cohort_spec(cohort_index).accesses;
  for (const workload::PageAccess& access : accesses) {
    if (!access.is_write) continue;
    auto iit = items_.find(access.page.Key());
    if (iit == items_.end()) continue;
    auto& writes = iit->second.pending_writes;
    auto pw = std::find_if(
        writes.begin(), writes.end(),
        [&](const PendingWrite& p) { return p.txn->id() == txn->id(); });
    if (pw == writes.end()) continue;
    writes.erase(pw);
    ReevaluateBlockedReads(iit->first);
  }
  // ...then wake its own still-blocked reads with kAborted.
  for (const workload::PageAccess& access : accesses) {
    if (access.is_write) continue;
    auto iit = items_.find(access.page.Key());
    if (iit == items_.end()) continue;
    auto& reads = iit->second.blocked_reads;
    auto br = std::find_if(
        reads.begin(), reads.end(),
        [&](const BlockedRead& r) { return r.txn->id() == txn->id(); });
    if (br == reads.end()) continue;
    --blocked_readers_;
    br->completion->Complete(AccessOutcome::kAborted);
    reads.erase(br);
  }
}

}  // namespace ccsim::cc
