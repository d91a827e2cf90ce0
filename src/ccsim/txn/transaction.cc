#include "ccsim/txn/transaction.h"

#include <utility>

#include "ccsim/sim/check.h"

namespace ccsim::txn {

const char* ToString(TxnPhase phase) {
  switch (phase) {
    case TxnPhase::kRunning: return "running";
    case TxnPhase::kPreparing: return "preparing";
    case TxnPhase::kCommitting: return "committing";
    case TxnPhase::kAborting: return "aborting";
    case TxnPhase::kRestartWait: return "restart-wait";
    case TxnPhase::kCommitted: return "committed";
    case TxnPhase::kAbandoned: return "abandoned";
  }
  return "?";
}

const char* ToString(AbortReason reason) {
  switch (reason) {
    case AbortReason::kLocalDeadlock: return "local-deadlock";
    case AbortReason::kGlobalDeadlock: return "global-deadlock";
    case AbortReason::kWound: return "wound";
    case AbortReason::kTimestampOrder: return "timestamp-order";
    case AbortReason::kCertification: return "certification";
    case AbortReason::kDie: return "die";
    case AbortReason::kTimeout: return "timeout";
    case AbortReason::kNodeCrash: return "node-crash";
    case AbortReason::kCommTimeout: return "comm-timeout";
  }
  return "?";
}

namespace {

/// Legal arcs of the per-attempt 2PC state machine (see TxnPhase). The
/// kRestartWait -> kRunning arc is taken by BeginAttempt(), not set_phase().
bool LegalPhaseTransition(TxnPhase from, TxnPhase to) {
  switch (from) {
    case TxnPhase::kRunning:
      return to == TxnPhase::kPreparing || to == TxnPhase::kAborting;
    case TxnPhase::kPreparing:
      return to == TxnPhase::kCommitting || to == TxnPhase::kAborting;
    case TxnPhase::kCommitting:
      return to == TxnPhase::kCommitted;
    case TxnPhase::kAborting:
      return to == TxnPhase::kRestartWait || to == TxnPhase::kAbandoned;
    case TxnPhase::kRestartWait:
    case TxnPhase::kCommitted:
    case TxnPhase::kAbandoned:
      return false;  // terminal for set_phase
  }
  return false;
}

}  // namespace

void Transaction::set_phase(TxnPhase phase) {
  if (sim::kAuditEnabled && !LegalPhaseTransition(phase_, phase)) {
    CCSIM_DCHECK_MSG(false, "illegal 2PC phase transition");
  }
  phase_ = phase;
}

Transaction::Transaction(TxnId id, workload::TransactionSpec spec,
                         sim::SimTime origin_time,
                         std::shared_ptr<sim::Completion<sim::Unit>> done)
    : done(std::move(done)),
      id_(id),
      origin_time_(origin_time),
      spec_(std::move(spec)),
      cohorts_(spec_.cohorts.size()) {
  CCSIM_CHECK(!spec_.cohorts.empty());
}

void Transaction::ReplaceSpec(workload::TransactionSpec spec) {
  CCSIM_CHECK_MSG(phase_ == TxnPhase::kRestartWait,
                  "spec replaced mid-attempt");
  CCSIM_CHECK(!spec.cohorts.empty());
  spec_ = std::move(spec);
  cohorts_.assign(spec_.cohorts.size(), CohortRuntime{});
}

void Transaction::BeginAttempt(sim::SimTime attempt_time) {
  ++attempt_;
  attempt_start_time_ = attempt_time;
  attempt_ts_ = Timestamp{attempt_time, id_};
  if (attempt_ == 0) initial_ts_ = attempt_ts_;
  phase_ = TxnPhase::kRunning;
  for (auto& c : cohorts_) c = CohortRuntime{};
  loads_sent = 0;
  ready_count = 0;
  votes_received = 0;
  acks = 0;
  phase_timer = 0;
  decision_resends = 0;
  exec_start_time = attempt_time;
  prepare_start_time = attempt_time;
  audit.clear();
}

}  // namespace ccsim::txn
