#ifndef CCSIM_CC_TWO_PHASE_LOCKING_H_
#define CCSIM_CC_TWO_PHASE_LOCKING_H_

#include <memory>
#include <vector>

#include "ccsim/cc/cc_manager.h"
#include "ccsim/cc/lock_table.h"
#include "ccsim/common/types.h"

namespace ccsim::cc {

/// Distributed two-phase locking (Sec 2.2, [Gray79]).
///
/// Cohorts lock dynamically as they execute: shared locks for reads,
/// exclusive locks for accesses that update. Locks are held until commit or
/// abort completes at this node. Local deadlock detection runs whenever a
/// cohort blocks; global deadlocks are found by the rotating Snoop process
/// (snoop.h), which unions every node's LocalWaitsForEdges(). Victims are the
/// youngest (most recent initial startup time) transaction in the cycle.
class TwoPhaseLockingManager : public CcManager {
 public:
  TwoPhaseLockingManager(CcContext* ctx, NodeId node);

  void BeginCohort(const txn::TxnPtr& txn, int cohort_index) override;
  std::shared_ptr<sim::Completion<AccessOutcome>> RequestAccess(
      const txn::TxnPtr& txn, int cohort_index, const PageRef& page,
      AccessMode mode) override;
  std::shared_ptr<sim::Completion<Vote>> Prepare(const txn::TxnPtr& txn,
                                                 int cohort_index) override {
    (void)txn;
    (void)cohort_index;
    return ImmediateVote(&ctx_->simulation(), Vote::kYes);
  }
  void CommitCohort(const txn::TxnPtr& txn, int cohort_index) override;
  void AbortCohort(const txn::TxnPtr& txn, int cohort_index) override;

  std::vector<WaitEdge> LocalWaitsForEdges() const override {
    return lock_table_.WaitsForEdges();
  }
  const stats::Tally* blocking_times() const override {
    return &lock_table_.wait_times();
  }
  void ResetStats() override { lock_table_.ResetStats(); }

  /// Transaction handle lookup for victim aborts (local detection and the
  /// Snoop both resolve victims through the lock tables' registries).
  txn::TxnPtr FindTxn(TxnId id) const { return lock_table_.FindTxn(id); }

  const LockTable& lock_table() const { return lock_table_; }

 protected:
  /// Runs local deadlock detection from `txn` over the live lock table and
  /// requests the abort of the youngest member of the first cycle found, if
  /// any (Sec 2.2: detection runs whenever a cohort blocks).
  void DetectLocalDeadlock(const txn::TxnPtr& txn);

  CcContext* ctx_;
  NodeId node_;
  LockTable lock_table_;
};

}  // namespace ccsim::cc

#endif  // CCSIM_CC_TWO_PHASE_LOCKING_H_
