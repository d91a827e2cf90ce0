#include "ccsim/cc/two_phase_locking_deferred.h"

#include <utility>

#include "ccsim/sim/check.h"

namespace ccsim::cc {

TwoPhaseLockingDeferredManager::TwoPhaseLockingDeferredManager(CcContext* ctx,
                                                               NodeId node)
    : TwoPhaseLockingManager(ctx, node) {}

std::shared_ptr<sim::Completion<AccessOutcome>>
TwoPhaseLockingDeferredManager::RequestAccess(const txn::TxnPtr& txn,
                                              int /*cohort_index*/,
                                              const PageRef& page,
                                              AccessMode mode) {
  if (mode == AccessMode::kWrite) {
    // Remember the page for the prepare-time upgrade, but lock it shared
    // for now. (The version audit still treats it as a blind write: the
    // install happens at commit under the exclusive lock.)
    write_sets_[txn->id()].push_back(page);
  }
  // Blind writes have no read semantics, so request the audit-free shared
  // mode through the base implementation's read path only for true reads.
  auto result = lock_table_.Request(txn, page, LockMode::kShared);
  if (!result.granted_immediately) {
    DetectLocalDeadlock(txn);
  } else if (mode == AccessMode::kRead) {
    ctx_->AuditRead(*txn, page);
  }
  return result.completion;
}

std::shared_ptr<sim::Completion<Vote>> TwoPhaseLockingDeferredManager::Prepare(
    const txn::TxnPtr& txn, int cohort_index) {
  (void)cohort_index;
  auto vote = sim::MakeCompletion<Vote>(&ctx_->simulation());
  auto wit = write_sets_.find(txn->id());
  if (wit == write_sets_.end() || wit->second.empty()) {
    vote->Complete(Vote::kYes);
    return vote;
  }
  std::vector<std::shared_ptr<sim::Completion<AccessOutcome>>> pending;
  for (const PageRef& page : wit->second) {
    auto result = lock_table_.Request(txn, page, LockMode::kExclusive);
    if (!result.granted_immediately) {
      ++upgrade_waits_;
      pending.push_back(result.completion);
      // Detection may pick *this* transaction as the victim; the abort then
      // cancels the pending upgrades through AbortCohort.
      DetectLocalDeadlock(txn);
    }
  }
  if (pending.empty()) {
    vote->Complete(Vote::kYes);
    return vote;
  }
  AwaitUpgrades(txn, std::move(pending), vote);
  return vote;
}

sim::Process TwoPhaseLockingDeferredManager::AwaitUpgrades(
    txn::TxnPtr txn,
    std::vector<std::shared_ptr<sim::Completion<AccessOutcome>>> pending,
    std::shared_ptr<sim::Completion<Vote>> vote) {
  (void)txn;
  bool all_granted = true;
  for (auto& completion : pending) {
    AccessOutcome outcome = co_await sim::Await(std::move(completion));
    if (outcome == AccessOutcome::kAborted) all_granted = false;
  }
  // A kNo vote is only observable when the transaction is still alive; an
  // aborted upgrade implies the abort protocol is already running and the
  // cohort will never send this vote (it checks its abort flag).
  vote->Complete(all_granted ? Vote::kYes : Vote::kNo);
}

void TwoPhaseLockingDeferredManager::CommitCohort(const txn::TxnPtr& txn,
                                                  int cohort_index) {
  write_sets_.erase(txn->id());
  TwoPhaseLockingManager::CommitCohort(txn, cohort_index);
}

void TwoPhaseLockingDeferredManager::AbortCohort(const txn::TxnPtr& txn,
                                                 int cohort_index) {
  write_sets_.erase(txn->id());
  TwoPhaseLockingManager::AbortCohort(txn, cohort_index);
}

}  // namespace ccsim::cc
