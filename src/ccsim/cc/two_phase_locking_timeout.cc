#include "ccsim/cc/two_phase_locking_timeout.h"

namespace ccsim::cc {

void TwoPhaseLockingTimeoutManager::OnBlocked(
    const txn::TxnPtr& txn, const PageRef& page,
    const LockTable::RequestResult& blocked) {
  // If the request is still pending when the timeout fires, cancel it: the
  // completion delivers kAborted to the cohort, which informs the
  // coordinator. If the request was granted (or the transaction aborted for
  // another reason) in the meantime, CancelRequest finds nothing. The
  // completion is held by the timer closure, so its lifetime is safe.
  // ccsim-analyze: coro-ok(the CC service is owned by System alongside the calendar and is destroyed after it; pending timers never outlive this)
  ctx_->simulation().After(timeout_sec_, [this, id = txn->id(), page,
                                          completion = blocked.completion] {
    if (completion->done()) return;  // granted or aborted already
    if (lock_table_.CancelRequest(id, page)) ++timeouts_;
  });
}

}  // namespace ccsim::cc
