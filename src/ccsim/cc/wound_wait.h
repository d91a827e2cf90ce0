#ifndef CCSIM_CC_WOUND_WAIT_H_
#define CCSIM_CC_WOUND_WAIT_H_

#include <cstdint>

#include "ccsim/cc/two_phase_locking.h"

namespace ccsim::cc {

/// Distributed wound-wait locking (Sec 2.3, [Rose78]).
///
/// Same locking mechanism as 2PL, but deadlocks are *prevented* with initial
/// startup timestamps: when a cohort's request would make it wait for a
/// younger transaction, the younger transaction is wounded (aborted), unless
/// it has already reached the second phase of its commit protocol, in which
/// case the wound is ignored and the requester simply waits for it to finish.
/// Younger transactions always wait for older ones. No deadlock detection is
/// needed: every lasting wait is young-waits-for-old.
class WoundWaitManager : public TwoPhaseLockingManager {
 public:
  using TwoPhaseLockingManager::TwoPhaseLockingManager;

  std::uint64_t wounds_issued() const { return wounds_; }

 protected:
  /// Wounds every younger transaction the request waits for.
  void OnBlocked(const txn::TxnPtr& txn, const PageRef& page,
                 const LockTable::RequestResult& blocked) override;

 private:
  std::uint64_t wounds_ = 0;
};

}  // namespace ccsim::cc

#endif  // CCSIM_CC_WOUND_WAIT_H_
