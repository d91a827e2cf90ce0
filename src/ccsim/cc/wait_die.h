#ifndef CCSIM_CC_WAIT_DIE_H_
#define CCSIM_CC_WAIT_DIE_H_

#include <cstdint>

#include "ccsim/cc/two_phase_locking.h"

namespace ccsim::cc {

/// Wait-die locking - the second deadlock-prevention scheme of [Rose78]
/// (extension; the paper evaluates only its sibling, wound-wait).
///
/// Timestamp rule, dual to wound-wait: an *older* requester may wait for a
/// younger lock holder, but a *younger* requester conflicting with an older
/// transaction aborts itself immediately ("dies"). Deaths are cheap - they
/// happen at request time, before any work is wasted on waiting - and, like
/// wound-wait, the scheme is deadlock-free (all waits are old-waits-for-
/// young). Restarted transactions keep their initial timestamps, so every
/// transaction eventually becomes the oldest and cannot die forever.
class WaitDieManager : public TwoPhaseLockingManager {
 public:
  using TwoPhaseLockingManager::TwoPhaseLockingManager;

  std::uint64_t deaths() const { return deaths_; }

 protected:
  /// Cancels the request (the requester dies) if it waits for an older
  /// transaction.
  void OnBlocked(const txn::TxnPtr& txn, const PageRef& page,
                 const LockTable::RequestResult& blocked) override;

 private:
  std::uint64_t deaths_ = 0;
};

}  // namespace ccsim::cc

#endif  // CCSIM_CC_WAIT_DIE_H_
