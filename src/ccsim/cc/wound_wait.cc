#include "ccsim/cc/wound_wait.h"

namespace ccsim::cc {

void WoundWaitManager::OnBlocked(const txn::TxnPtr& txn, const PageRef& page,
                                 const LockTable::RequestResult& blocked) {
  (void)page;
  // The requester waits either way; wounded transactions release their
  // locks when their abort reaches this node. Wounds against transactions
  // already in the second commit phase would be ignored by the coordinator
  // anyway; checking here models the cohort-local "already prepared"
  // short-circuit and avoids pointless messages.
  for (const auto& blocker : blocked.blockers) {
    if (txn->initial_ts() < blocker->initial_ts()) {
      if (blocker->phase() == txn::TxnPhase::kCommitting ||
          blocker->phase() == txn::TxnPhase::kCommitted) {
        continue;  // wound is not fatal (Sec 2.3)
      }
      ++wounds_;
      ctx_->RequestAbort(blocker, blocker->attempt(), node_,
                         txn::AbortReason::kWound);
    }
  }
}

}  // namespace ccsim::cc
