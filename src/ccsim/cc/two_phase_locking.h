#ifndef CCSIM_CC_TWO_PHASE_LOCKING_H_
#define CCSIM_CC_TWO_PHASE_LOCKING_H_

#include <memory>
#include <vector>

#include "ccsim/cc/cc_manager.h"
#include "ccsim/cc/lock_table.h"
#include "ccsim/common/types.h"

namespace ccsim::cc {

/// Distributed two-phase locking (Sec 2.2, [Gray79]), and the request path
/// every locking variant shares.
///
/// Cohorts lock dynamically as they execute: shared locks for reads,
/// exclusive locks for accesses that update. Locks are held until commit or
/// abort completes at this node. Local deadlock detection runs whenever a
/// cohort blocks; global deadlocks are found by the rotating Snoop process
/// (snoop.h), which unions every node's LocalWaitsForEdges(). Victims are the
/// youngest (most recent initial startup time) transaction in the cycle.
///
/// The variants (wound-wait, wait-die, 2PL-TO, 2PL-DW) use the same lock
/// table and request path; they differ only in what a request that has to
/// wait does (OnBlocked) and, for 2PL-DW, in the mode an access locks
/// (LockModeFor).
class TwoPhaseLockingManager : public CcManager {
 public:
  TwoPhaseLockingManager(CcContext* ctx, NodeId node);

  void BeginCohort(const txn::TxnPtr& txn, int cohort_index) override;
  /// Requests the access's lock. An immediate grant of a read audits the
  /// version read; a request that has to wait goes to OnBlocked.
  std::shared_ptr<sim::Completion<AccessOutcome>> RequestAccess(
      const txn::TxnPtr& txn, int cohort_index, const PageRef& page,
      AccessMode mode) final;
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
  /// The lock an access requests: exclusive for an update, shared for a
  /// read.
  virtual LockMode LockModeFor(AccessMode mode) const {
    return mode == AccessMode::kWrite ? LockMode::kExclusive
                                      : LockMode::kShared;
  }
  /// The conflict rule, run when `txn`'s request on `page` queued behind
  /// `blocked.blockers`. 2PL runs local deadlock detection from `txn` over
  /// the live lock table and requests the abort of the youngest member of
  /// the first cycle found, if any (Sec 2.2: detection runs whenever a
  /// cohort blocks).
  virtual void OnBlocked(const txn::TxnPtr& txn, const PageRef& page,
                         const LockTable::RequestResult& blocked);

  LockTable lock_table_;
};

}  // namespace ccsim::cc

#endif  // CCSIM_CC_TWO_PHASE_LOCKING_H_
