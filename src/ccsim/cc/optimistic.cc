#include "ccsim/cc/optimistic.h"

#include "ccsim/sim/check.h"

namespace ccsim::cc {

std::shared_ptr<sim::Completion<AccessOutcome>>
OptimisticManager::RequestAccess(const txn::TxnPtr& txn, int cohort_index,
                                 const PageRef& page, AccessMode mode) {
  (void)cohort_index;
  auto completion = sim::MakeCompletion<AccessOutcome>(&ctx_->simulation());
  std::uint64_t key = page.Key();
  Item& item = items_[key];
  TxnLocal& local = txn_state_[txn->id()];
  if (mode == AccessMode::kRead) {
    // Remember the version read for certification; reads see the current
    // committed version (updates of concurrent transactions are in private
    // workspaces).
    local.reads.emplace_back(key, item.wts);
    ctx_->AuditRead(*txn, page);
  } else {
    local.writes.push_back(key);
  }
  completion->Complete(AccessOutcome::kGranted);
  return completion;
}

std::shared_ptr<sim::Completion<Vote>> OptimisticManager::Prepare(
    const txn::TxnPtr& txn, int cohort_index) {
  return ImmediateVote(Certify(txn, cohort_index));
}

Vote OptimisticManager::Certify(const txn::TxnPtr& txn, int cohort_index) {
  (void)cohort_index;
  auto tit = txn_state_.find(txn->id());
  if (tit == txn_state_.end()) {
    // Cohort performed no accesses here (cannot happen with the paper's
    // workload, but a vote is still required).
    return Vote::kYes;
  }
  TxnLocal& local = tit->second;
  Timestamp c = txn->commit_ts();
  CCSIM_CHECK_MSG(c.id == txn->id(), "prepare before commit_ts assignment");

  // Validation pass (no state changes).
  for (const auto& [key, version] : local.reads) {
    const Item& item = items_.at(key);
    if (!(item.wts == version)) {
      ++cert_failures_;
      return Vote::kNo;
    }
    for (const auto& [other, wts] : item.cert_writes) {
      if (other != txn->id()) {
        // An in-doubt write would create a version newer than the one read.
        ++cert_failures_;
        return Vote::kNo;
      }
    }
  }
  for (std::uint64_t key : local.writes) {
    const Item& item = items_.at(key);
    if (c < item.rts) {  // a later read already committed
      ++cert_failures_;
      return Vote::kNo;
    }
    for (const auto& [other, rts] : item.cert_reads) {
      if (other != txn->id() && c < rts) {  // a later read is in doubt
        ++cert_failures_;
        return Vote::kNo;
      }
    }
  }

  // Registration pass: the cohort's operations become in-doubt.
  for (const auto& [key, version] : local.reads) {
    items_.at(key).cert_reads[txn->id()] = c;
  }
  for (std::uint64_t key : local.writes) {
    items_.at(key).cert_writes[txn->id()] = c;
  }
  local.certified = true;
  return Vote::kYes;
}

void OptimisticManager::CommitCohort(const txn::TxnPtr& txn,
                                     int cohort_index) {
  (void)cohort_index;
  auto tit = txn_state_.find(txn->id());
  if (tit == txn_state_.end()) return;
  TxnLocal local = std::move(tit->second);
  txn_state_.erase(tit);
  CCSIM_CHECK_MSG(local.certified, "commit of an uncertified cohort");
  Timestamp c = txn->commit_ts();
  for (const auto& [key, version] : local.reads) {
    Item& item = items_.at(key);
    if (item.rts < c) item.rts = c;
    item.cert_reads.erase(txn->id());
  }
  for (std::uint64_t key : local.writes) {
    Item& item = items_.at(key);
    item.cert_writes.erase(txn->id());
    if (item.wts < c) {
      item.wts = c;
      ctx_->AuditInstallWrite(*txn, PageRef::FromKey(key));
    } else {
      ctx_->AuditSkippedWrite(*txn, PageRef::FromKey(key));
    }
  }
}

void OptimisticManager::AbortCohort(const txn::TxnPtr& txn, int cohort_index) {
  (void)cohort_index;
  auto tit = txn_state_.find(txn->id());
  if (tit == txn_state_.end()) return;
  TxnLocal local = std::move(tit->second);
  txn_state_.erase(tit);
  if (local.certified) {
    for (const auto& [key, version] : local.reads) {
      items_.at(key).cert_reads.erase(txn->id());
    }
    for (std::uint64_t key : local.writes) {
      items_.at(key).cert_writes.erase(txn->id());
    }
  }
}

}  // namespace ccsim::cc
