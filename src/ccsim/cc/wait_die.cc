#include "ccsim/cc/wait_die.h"

#include "ccsim/sim/check.h"

namespace ccsim::cc {

void WaitDieManager::OnBlocked(const txn::TxnPtr& txn, const PageRef& page,
                               const LockTable::RequestResult& blocked) {
  // The requester may wait only if it is older than every transaction it
  // would wait for; otherwise it dies on the spot. The death is delivered
  // through the request's own completion (kAborted, by the cancel), and the
  // cohort informs the coordinator like any self-detected rejection.
  for (const auto& blocker : blocked.blockers) {
    if (blocker->initial_ts() < txn->initial_ts()) {
      ++deaths_;
      bool cancelled = lock_table_.CancelRequest(txn->id(), page);
      CCSIM_CHECK_MSG(cancelled, "dying request not found in queue");
      return;
    }
  }
}

}  // namespace ccsim::cc
