#ifndef CCSIM_TXN_COORDINATOR_H_
#define CCSIM_TXN_COORDINATOR_H_

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "ccsim/cc/cc_manager.h"
#include "ccsim/sim/process.h"
#include "ccsim/txn/cohort.h"
#include "ccsim/txn/transaction.h"
#include "ccsim/workload/spec.h"

namespace ccsim::engine {
class System;
}  // namespace ccsim::engine

namespace ccsim::txn {

/// Host-side transaction management: one coordinator per transaction
/// (Sec 2.1), implemented as an event-driven state machine over the phases
/// in transaction.h. Runs the centralized two-phase commit protocol used by
/// all four concurrency control algorithms, the abort protocol, and
/// restart-after-one-average-response-time (Sec 3.3).
///
/// Message protocol per attempt and cohort:
///   LOAD -> (cohort executes) -> READY        } parallel: all at once,
///   PREPARE -> VOTE                           } sequential: LOAD chains
///   COMMIT -> ACK   or   ABORT -> ACK
/// Abort requests (deadlock victim, wound, snoop, cohort self-abort) are
/// accepted in kRunning/kPreparing and ignored from kCommitting on - a
/// transaction in the second phase of its commit protocol can no longer be
/// aborted (the wound-wait rule of Sec 2.3).
class CoordinatorService {
 public:
  CoordinatorService(engine::System* system, CohortService* cohorts);

  /// Admits a transaction; the returned completion fires when it commits.
  std::shared_ptr<sim::Completion<sim::Unit>> Submit(
      workload::TransactionSpec spec);

  // Message-driven entry points (invoked at the host on delivery).
  void OnCohortReady(const TxnPtr& txn, int attempt, int cohort_index);
  void OnVote(const TxnPtr& txn, int attempt, int cohort_index, cc::Vote vote);
  /// A cohort's acknowledgement of the COMMIT or ABORT decision.
  void OnAck(const TxnPtr& txn, int attempt, int cohort_index);
  /// Abort raised by a CC manager somewhere in the machine, or by the
  /// transaction's own cohort (self-detected rejection).
  void OnAbortRequest(const TxnPtr& txn, int attempt, AbortReason reason);

  /// Crash notification from the fault layer: every live transaction with a
  /// cohort at `node` is drained there (locks released, coroutine silenced)
  /// and then aborted (before the commit point) or force-completed with
  /// presumed acknowledgements (after it).
  void OnNodeCrash(NodeId node);

  std::size_t live_transactions() const { return live_.size(); }
  std::uint64_t commits() const { return commits_; }
  std::uint64_t aborts() const { return aborts_; }
  std::uint64_t aborts_by_reason(AbortReason r) const {
    return aborts_by_reason_[static_cast<std::size_t>(r)];
  }
  /// All per-reason abort counts, indexed by AbortReason.
  const std::array<std::uint64_t, kNumAbortReasons>& aborts_by_reason() const {
    return aborts_by_reason_;
  }
  /// 2PC protocol instances completed by presuming missing acknowledgements
  /// after exhausting decision resends (fault runs only).
  std::uint64_t forced_terminations() const { return forced_terminations_; }
  /// Transactions abandoned because their deadline passed before a restart
  /// (OverloadParams::txn_deadline_sec).
  std::uint64_t abandoned_deadline() const { return abandoned_deadline_; }
  /// Transactions abandoned because their restart budget was spent
  /// (OverloadParams::max_restarts).
  std::uint64_t abandoned_retry_exhausted() const {
    return abandoned_retry_exhausted_;
  }

  /// Coordinator process frames live in the simulation's arena (process.h).
  sim::Arena* process_arena();

 private:
  void StartAttempt(const TxnPtr& txn, bool first_attempt);
  sim::Process StartAttemptProcess(TxnPtr txn, bool first_attempt);
  void SendLoad(const TxnPtr& txn, int cohort_index);
  void SendPrepares(const TxnPtr& txn);
  /// Sends the attempt's decision - COMMIT in kCommitting, ABORT in
  /// kAborting - to every cohort loaded this attempt whose ack is
  /// outstanding (first pass and decision resends); acks from down nodes
  /// are presumed. The round ends when every loaded cohort has acked.
  void SendDecision(const TxnPtr& txn);
  /// Ends a decision round whose acks are all in: commits, or disarms the
  /// phase timer and schedules the restart.
  void FinishDecision(const TxnPtr& txn);
  void BeginAbort(const TxnPtr& txn, AbortReason reason);
  void FinalizeCommit(const TxnPtr& txn);
  void ScheduleRestart(const TxnPtr& txn);
  /// Gives up on an aborted transaction instead of restarting it (deadline
  /// passed or restart budget spent): completes its `done` without a commit.
  void Abandon(const TxnPtr& txn, bool deadline_exceeded);
  /// Delay before the next attempt: capped exponential backoff when
  /// configured, else the paper's adaptive restart delay.
  double RestartDelay(const TxnPtr& txn) const;

  // --- fault hardening (all no-ops / unreachable when faults are off) ----
  /// (Re)arms the per-transaction phase timeout; no-op unless
  /// FaultParams::any() and msg_timeout_sec > 0. Every protocol progress
  /// event rearms it, so it only fires after a genuinely silent period.
  void ArmPhaseTimer(const TxnPtr& txn);
  void DisarmPhaseTimer(const TxnPtr& txn);
  void OnPhaseTimeout(const TxnPtr& txn, int attempt);
  /// Out-of-band termination after resend exhaustion: applies the decision
  /// directly at unresponsive-but-up cohorts (modeling a termination
  /// protocol) and presumes the missing acks.
  void ForceTerminate(const TxnPtr& txn);

  engine::System& system_;
  CohortService* cohorts_;
  TxnId next_id_ = 1;
  std::unordered_map<TxnId, TxnPtr> live_;
  std::uint64_t commits_ = 0;
  std::uint64_t aborts_ = 0;
  std::uint64_t forced_terminations_ = 0;
  std::uint64_t abandoned_deadline_ = 0;
  std::uint64_t abandoned_retry_exhausted_ = 0;
  std::array<std::uint64_t, kNumAbortReasons> aborts_by_reason_{};
};

}  // namespace ccsim::txn

#endif  // CCSIM_TXN_COORDINATOR_H_
