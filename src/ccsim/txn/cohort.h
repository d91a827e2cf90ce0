#ifndef CCSIM_TXN_COHORT_H_
#define CCSIM_TXN_COHORT_H_

#include "ccsim/sim/process.h"
#include "ccsim/txn/transaction.h"

namespace ccsim::engine {
class System;
}  // namespace ccsim::engine

namespace ccsim::txn {

class CoordinatorService;

/// Node-side transaction management: runs cohort processes and handles the
/// coordinator's LOAD / PREPARE / COMMIT / ABORT messages at the cohort's
/// node (Secs 2.1, 3.3).
///
/// A cohort process executes its access list: per access, a concurrency
/// control request (which may block or return kAborted), then - for plain
/// reads - a synchronous disk read, then an exponentially distributed amount
/// of page-processing CPU. Updated pages skip the synchronous I/O; their
/// disk writes happen asynchronously after commit (InstPerUpdate CPU to
/// initiate, write-priority disk queue).
///
/// Abort handling is cooperative: the ABORT message handler marks the
/// cohort's abort flag and cleans up CC state (waking a blocked request with
/// kAborted); the cohort coroutine checks the flag and its attempt number
/// after every await and bows out silently. ABORT acknowledgements come from
/// the message handler, never from the coroutine.
class CohortService {
 public:
  explicit CohortService(engine::System* system);

  void set_coordinator(CoordinatorService* coord) { coord_ = coord; }

  // Message handlers (run at the cohort's node on message delivery).
  void HandleLoad(const TxnPtr& txn, int attempt, int cohort_index);
  void HandlePrepare(const TxnPtr& txn, int attempt, int cohort_index);
  void HandleCommit(const TxnPtr& txn, int attempt, int cohort_index);
  void HandleAbort(const TxnPtr& txn, int attempt, int cohort_index);

  /// Cohort process frames live in the simulation's arena (process.h).
  sim::Arena* process_arena();

 private:
  sim::Process RunCohort(TxnPtr txn, int attempt, int cohort_index);
  sim::Process PrepareProcess(TxnPtr txn, int attempt, int cohort_index);
  sim::Process AsyncPageWrite(NodeId node);
  /// Abort reason reported when a cohort's own access is rejected by the CC
  /// manager (depends on the algorithm in use).
  AbortReason SelfAbortReason() const;

  engine::System& system_;
  CoordinatorService* coord_ = nullptr;
};

}  // namespace ccsim::txn

#endif  // CCSIM_TXN_COHORT_H_
