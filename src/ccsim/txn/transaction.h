#ifndef CCSIM_TXN_TRANSACTION_H_
#define CCSIM_TXN_TRANSACTION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ccsim/common/types.h"
#include "ccsim/sim/completion.h"
#include "ccsim/sim/time.h"
#include "ccsim/workload/spec.h"

namespace ccsim::txn {

/// Lifecycle of a transaction attempt, as seen by the coordinator.
///
///   kRunning ----(all cohorts READY)----> kPreparing
///   kPreparing --(all votes yes)--------> kCommitting --(all acks)--> kCommitted
///   kRunning/kPreparing --(abort)-------> kAborting --(all acks)--> kRestartWait
///   kRestartWait --(restart delay)------> kRunning (next attempt)
///   kAborting --(deadline passed / restart budget spent)--> kAbandoned
///
/// Abort requests that arrive in kCommitting or later are ignored: the
/// transaction is in the second phase of its commit protocol, so e.g. a
/// wound-wait "wound" is no longer fatal (Sec 2.3).
enum class TxnPhase {
  kRunning,
  kPreparing,
  kCommitting,
  kAborting,
  kRestartWait,
  kCommitted,
  /// Terminal without commit (overload extension): instead of entering
  /// kRestartWait the coordinator gave up on the transaction - its deadline
  /// passed or its restart budget is spent (OverloadParams).
  kAbandoned,
};

const char* ToString(TxnPhase phase);

/// Why an attempt was aborted (metrics/diagnostics).
enum class AbortReason {
  kLocalDeadlock,
  kGlobalDeadlock,
  kWound,
  kTimestampOrder,   // BTO out-of-order access
  kCertification,    // OPT validation failure
  kDie,              // wait-die: younger requester dies
  kTimeout,          // timeout-based blocking expired
  kNodeCrash,        // a node holding one of the cohorts crashed
  kCommTimeout,      // a 2PC phase timed out waiting for replies
};

/// Number of AbortReason values (sizing per-reason counters).
inline constexpr int kNumAbortReasons = 9;

const char* ToString(AbortReason reason);

/// Per-attempt, per-cohort runtime flags. The 2PC dedupe flags exist for the
/// fault paths: with decision resends and crash draining, COMMIT/ABORT can
/// reach a cohort more than once and acks can be presumed by the
/// coordinator; each transition must apply exactly once. Fault-free runs
/// never set them twice, so the flags are inert there.
struct CohortRuntime {
  bool load_sent = false;   // coordinator sent LOAD this attempt
  bool abort_flag = false;  // ABORT processed at the cohort's node
  bool voted = false;           // cohort's PREPARE vote left the node
  bool decision_handled = false;  // cohort applied COMMIT/ABORT (dedupe)
  bool ack_counted = false;     // coordinator counted this cohort's ack
                                // (received or presumed)
};

/// Audit records (enabled by RunParams::enable_audit): which version each
/// read observed and which version each write installed, against the
/// engine's shadow version store. Feeds the serializability checker.
struct AuditRecord {
  PageRef page;
  std::uint64_t version = 0;
  bool is_write = false;
  bool installed = true;  // false for Thomas-write-rule skipped writes
};

/// All coordinator- and cohort-visible state of one transaction. Owned by
/// shared_ptr: message closures, cohort coroutines, and CC wait queues all
/// hold references; the object outlives every in-flight activity.
class Transaction {
 public:
  Transaction(TxnId id, workload::TransactionSpec spec,
              sim::SimTime origin_time,
              std::shared_ptr<sim::Completion<sim::Unit>> done);

  /// Resets per-attempt state and stamps a fresh attempt timestamp.
  /// `attempt_time` is the simulated time the attempt starts.
  void BeginAttempt(sim::SimTime attempt_time);

  /// Replaces the access set before a restart ("fake restarts", Sec 3.3
  /// variant). Only legal between attempts (kRestartWait).
  void ReplaceSpec(workload::TransactionSpec spec);

  /// True when `attempt` refers to a finished (superseded) attempt; stale
  /// messages and coroutine wakeups check this and bow out.
  bool IsStaleAttempt(int attempt) const { return attempt != attempt_; }

  TxnId id() const { return id_; }
  int attempt() const { return attempt_; }
  sim::SimTime origin_time() const { return origin_time_; }
  sim::SimTime attempt_start_time() const { return attempt_start_time_; }

  /// Timestamp from the transaction's *initial* startup; retained across
  /// restarts. Used by WW wounds and 2PL deadlock victim selection ("most
  /// recent initial startup time").
  Timestamp initial_ts() const { return initial_ts_; }

  /// Fresh per attempt; used by BTO so restarted transactions can make
  /// progress against advanced read/write timestamps.
  Timestamp attempt_ts() const { return attempt_ts_; }

  /// OPT's globally unique certification timestamp, assigned when the
  /// coordinator starts the commit protocol.
  Timestamp commit_ts() const { return commit_ts_; }
  void set_commit_ts(Timestamp ts) { commit_ts_ = ts; }

  TxnPhase phase() const { return phase_; }
  /// Advances the attempt's 2PC state machine. Audit builds (CCSIM_AUDIT)
  /// verify the transition is one of the legal arcs documented on TxnPhase;
  /// kRestartWait -> kRunning goes through BeginAttempt(), never here.
  void set_phase(TxnPhase phase);

  const workload::TransactionSpec& spec() const { return spec_; }
  int num_cohorts() const { return static_cast<int>(spec_.cohorts.size()); }
  const workload::CohortSpec& cohort_spec(int i) const {
    return spec_.cohorts[static_cast<std::size_t>(i)];
  }
  CohortRuntime& cohort(int i) { return cohorts_[static_cast<std::size_t>(i)]; }
  const CohortRuntime& cohort(int i) const {
    return cohorts_[static_cast<std::size_t>(i)];
  }

  // --- 2PC bookkeeping (coordinator side, per attempt) -------------------
  int loads_sent = 0;
  int ready_count = 0;
  int votes_received = 0;
  /// Acks of the attempt's decision (COMMIT or ABORT), received or presumed.
  int acks = 0;

  /// Total aborted attempts over the transaction's lifetime.
  int total_aborts = 0;

  // --- fault hardening (coordinator side, per attempt) -------------------
  /// Pending 2PC phase-timeout event (sim calendar id; 0 = none armed).
  /// Armed only when FaultParams::any() and msg_timeout_sec > 0.
  std::uint64_t phase_timer = 0;
  /// COMMIT/ABORT decision resends performed so far this attempt.
  int decision_resends = 0;

  // --- per-phase latency stamps (per attempt) ----------------------------
  /// When the attempt's cohorts started executing (after the host startup
  /// queue/CPU on the first attempt; equals attempt_start_time on
  /// restarts). Stamped by the coordinator just before LOADs go out.
  sim::SimTime exec_start_time = 0.0;
  /// When the attempt entered kPreparing (all cohorts READY); the commit
  /// protocol (prepare votes + commit acks) runs from here to completion.
  sim::SimTime prepare_start_time = 0.0;

  /// Completion handed back to the terminal; fulfilled on commit.
  std::shared_ptr<sim::Completion<sim::Unit>> done;

  /// Audit log of the *current* attempt (discarded on abort, harvested on
  /// commit).
  std::vector<AuditRecord> audit;

 private:
  TxnId id_;
  int attempt_ = -1;
  sim::SimTime origin_time_;
  sim::SimTime attempt_start_time_ = 0.0;
  Timestamp initial_ts_{};
  Timestamp attempt_ts_{};
  Timestamp commit_ts_{};
  TxnPhase phase_ = TxnPhase::kRunning;
  workload::TransactionSpec spec_;
  std::vector<CohortRuntime> cohorts_;
};

using TxnPtr = std::shared_ptr<Transaction>;

}  // namespace ccsim::txn

#endif  // CCSIM_TXN_TRANSACTION_H_
