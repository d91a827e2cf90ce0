#ifndef CCSIM_CC_TWO_PHASE_LOCKING_TIMEOUT_H_
#define CCSIM_CC_TWO_PHASE_LOCKING_TIMEOUT_H_

#include <cstdint>

#include "ccsim/cc/two_phase_locking.h"

namespace ccsim::cc {

/// 2PL with timeout-based deadlock handling (extension; footnote 2 of the
/// paper cites [Jenq89]'s finding that the timeout interval is a critical
/// and sensitive parameter - bench/ablation_lock_timeout reproduces that).
///
/// No deadlock detection runs at all (no local cycle search, no Snoop): a
/// request that has waited longer than LockingParams::timeout_sec simply
/// aborts its transaction. Short timeouts slaughter transactions that were
/// merely queued; long timeouts let deadlocked transactions clog the system.
class TwoPhaseLockingTimeoutManager : public TwoPhaseLockingManager {
 public:
  using TwoPhaseLockingManager::TwoPhaseLockingManager;

  /// Timeouts never consult waits-for information.
  std::vector<WaitEdge> LocalWaitsForEdges() const override { return {}; }

  std::uint64_t timeouts_fired() const { return timeouts_; }

 protected:
  /// Arms the request's timeout instead of detecting deadlocks.
  void OnBlocked(const txn::TxnPtr& txn, const PageRef& page,
                 const LockTable::RequestResult& blocked) override;

 private:
  double timeout_sec_ = ctx_->config().locking.timeout_sec;
  std::uint64_t timeouts_ = 0;
};

}  // namespace ccsim::cc

#endif  // CCSIM_CC_TWO_PHASE_LOCKING_TIMEOUT_H_
