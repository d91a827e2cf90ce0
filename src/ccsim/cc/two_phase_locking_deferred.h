#ifndef CCSIM_CC_TWO_PHASE_LOCKING_DEFERRED_H_
#define CCSIM_CC_TWO_PHASE_LOCKING_DEFERRED_H_

#include <memory>
#include <vector>

#include "ccsim/cc/two_phase_locking.h"
#include "ccsim/sim/process.h"

namespace ccsim::cc {

/// 2PL with deferred write locks (2PL-DW) - the improvement the paper's
/// conclusions point to ([Care89], footnote 13): write accesses take only a
/// *shared* lock while the cohort executes; the exclusive locks are acquired
/// (as upgrades) during the first phase of the commit protocol. Exclusive
/// hold times shrink to roughly the commit protocol's duration, at the cost
/// of deadlock-prone upgrades at prepare time (the lock-based analogue of
/// OPT's certification failures).
///
/// Not part of the paper's figure set; provided as the natural extension and
/// compared against the stock algorithms in bench/ext_deferred_writes.
class TwoPhaseLockingDeferredManager : public TwoPhaseLockingManager {
 public:
  using TwoPhaseLockingManager::TwoPhaseLockingManager;

  /// Upgrades the cohort's write accesses to exclusive locks, in spec
  /// order; commit then installs and releases like the base (by commit
  /// time every written page holds an exclusive lock).
  std::shared_ptr<sim::Completion<Vote>> Prepare(const txn::TxnPtr& txn,
                                                 int cohort_index) override;

  std::uint64_t upgrade_waits() const { return upgrade_waits_; }

  /// Upgrade-wait process frames live in the simulation's arena (process.h).
  sim::Arena* process_arena() { return ctx_->simulation().arena(); }

 protected:
  /// Every access locks shared while the cohort executes. (The version
  /// audit still treats a write as a blind write: the install happens at
  /// commit under the exclusive lock, so only true reads are audited.)
  LockMode LockModeFor(AccessMode mode) const override {
    (void)mode;
    return LockMode::kShared;
  }

 private:
  sim::Process AwaitUpgrades(
      txn::TxnPtr txn,
      std::vector<std::shared_ptr<sim::Completion<AccessOutcome>>> pending,
      std::shared_ptr<sim::Completion<Vote>> vote);

  std::uint64_t upgrade_waits_ = 0;
};

}  // namespace ccsim::cc

#endif  // CCSIM_CC_TWO_PHASE_LOCKING_DEFERRED_H_
