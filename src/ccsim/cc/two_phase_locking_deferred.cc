#include "ccsim/cc/two_phase_locking_deferred.h"

#include <utility>

#include "ccsim/sim/check.h"

namespace ccsim::cc {

std::shared_ptr<sim::Completion<Vote>> TwoPhaseLockingDeferredManager::Prepare(
    const txn::TxnPtr& txn, int cohort_index) {
  auto vote = sim::MakeCompletion<Vote>(&ctx_->simulation());
  std::vector<std::shared_ptr<sim::Completion<AccessOutcome>>> pending;
  for (const workload::PageAccess& access :
       txn->cohort_spec(cohort_index).accesses) {
    // Detection may pick *this* transaction as the victim. When messages
    // are free (InstPerMsg 0) the abort then arrives inside this loop, and
    // AbortCohort has already released every lock and cancelled the
    // pending upgrades: upgrade nothing more for a dead cohort.
    if (txn->cohort(cohort_index).abort_flag) break;
    if (!access.is_write) continue;
    auto result = lock_table_.Request(txn, access.page, LockMode::kExclusive);
    if (!result.granted_immediately) {
      ++upgrade_waits_;
      pending.push_back(result.completion);
      OnBlocked(txn, access.page, result);
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

}  // namespace ccsim::cc
