#ifndef CCSIM_CC_CC_MANAGER_H_
#define CCSIM_CC_CC_MANAGER_H_

#include <memory>
#include <vector>

#include "ccsim/common/types.h"
#include "ccsim/config/params.h"
#include "ccsim/sim/completion.h"
#include "ccsim/sim/simulation.h"
#include "ccsim/stats/tally.h"
#include "ccsim/txn/transaction.h"

namespace ccsim::cc {

/// Result of a concurrency control access request, delivered (possibly after
/// blocking) to the requesting cohort.
enum class AccessOutcome {
  kGranted,
  kAborted,  // the cohort's transaction must abort (rejection, wound, victim)
};

/// Cohort vote in the first phase of the commit protocol.
enum class Vote { kYes, kNo };

/// A waits-for edge between transactions (with the timestamps deadlock victim
/// selection needs), as reported by a node's lock manager to the Snoop.
struct WaitEdge {
  TxnId waiter = 0;
  Timestamp waiter_ts{};
  TxnId holder = 0;
  Timestamp holder_ts{};
};

/// Services a concurrency control manager obtains from the surrounding
/// engine. Implemented by engine::System.
class CcContext {
 public:
  virtual ~CcContext() = default;

  virtual sim::Simulation& simulation() = 0;

  /// The run's configuration (CC managers read their algorithm options).
  virtual const config::SystemConfig& config() const = 0;

  /// Requests that the coordinator abort `txn`'s current attempt. The
  /// request is raised at `from_node` and travels to the host as a message;
  /// the coordinator ignores it if the attempt is stale or already past the
  /// point of no return (committing).
  virtual void RequestAbort(const txn::TxnPtr& txn, int attempt,
                            NodeId from_node, txn::AbortReason reason) = 0;

  /// Audit hook: `t` (current attempt) observed the current committed
  /// version of `page`. No-op when auditing is disabled.
  virtual void AuditRead(txn::Transaction& t, const PageRef& page) = 0;

  /// Audit hook: `t` installed a new committed version of `page`.
  virtual void AuditInstallWrite(txn::Transaction& t, const PageRef& page) = 0;

  /// Audit hook: `t`'s write of `page` was skipped by the Thomas write rule
  /// (BTO): the transaction commits but no version is installed.
  virtual void AuditSkippedWrite(txn::Transaction& t, const PageRef& page) = 0;
};

/// A node's concurrency control manager (Sec 3.6): one instance per node,
/// implementing one algorithm. All calls refer to the cohort of `txn` local
/// to this node (`cohort_index` into the transaction's cohort list).
///
/// Threading/reentrancy: the simulation is single-threaded; implementations
/// may complete requests inline (the completion machinery defers the
/// cohort's resumption through the calendar).
class CcManager {
 public:
  CcManager(CcContext* ctx, NodeId node) : ctx_(ctx), node_(node) {}
  virtual ~CcManager() = default;

  /// Called (at the cohort's node) before the cohort's first access.
  virtual void BeginCohort(const txn::TxnPtr& txn, int cohort_index) {
    (void)txn;
    (void)cohort_index;
  }

  /// Requests permission for one page access. The completion yields
  /// kGranted when the access may proceed, or kAborted if the transaction
  /// must abort (the cohort then informs the coordinator).
  virtual std::shared_ptr<sim::Completion<AccessOutcome>> RequestAccess(
      const txn::TxnPtr& txn, int cohort_index, const PageRef& page,
      AccessMode mode) = 0;

  /// First phase of commit at this node: by default an immediate yes. OPT
  /// runs certification here; the deferred-write 2PL variant upgrades its
  /// write locks here (and may block, hence the completion). If the
  /// transaction aborts while the prepare is pending, the completion fires
  /// with kNo after AbortCohort's cleanup; the caller checks the cohort's
  /// abort flag before voting.
  virtual std::shared_ptr<sim::Completion<Vote>> Prepare(
      const txn::TxnPtr& txn, int cohort_index) {
    (void)txn;
    (void)cohort_index;
    return ImmediateVote(Vote::kYes);
  }

  /// Second phase, commit: release locks / install pending or certified
  /// writes / bump timestamps.
  virtual void CommitCohort(const txn::TxnPtr& txn, int cohort_index) = 0;

  /// Abort cleanup at this node. Must be idempotent and safe to call even if
  /// the cohort never began or already self-aborted. Wakes any request of
  /// this cohort still blocked here (with kAborted).
  virtual void AbortCohort(const txn::TxnPtr& txn, int cohort_index) = 0;

  /// Local waits-for edges (lock-based algorithms; empty otherwise).
  virtual std::vector<WaitEdge> LocalWaitsForEdges() const { return {}; }

  /// Time cohorts spent blocked in this manager (lock-based algorithms).
  virtual const stats::Tally* blocking_times() const { return nullptr; }

  virtual void ResetStats() {}

 protected:
  /// A vote that is available at once (a first commit phase that never
  /// waits).
  std::shared_ptr<sim::Completion<Vote>> ImmediateVote(Vote vote) const {
    auto c = sim::MakeCompletion<Vote>(&ctx_->simulation());
    c->Complete(vote);
    return c;
  }

  CcContext* ctx_;
  NodeId node_;
};

}  // namespace ccsim::cc

#endif  // CCSIM_CC_CC_MANAGER_H_
