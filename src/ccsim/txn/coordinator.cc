#include "ccsim/txn/coordinator.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "ccsim/engine/system.h"
#include "ccsim/sim/check.h"

namespace ccsim::txn {

using resource::CpuJobClass;

CoordinatorService::CoordinatorService(engine::System* system,
                                       CohortService* cohorts)
    : system_(*system), cohorts_(cohorts) {
  cohorts_->set_coordinator(this);
}

sim::Arena* CoordinatorService::process_arena() {
  return system_.sim().arena();
}

std::shared_ptr<sim::Completion<sim::Unit>> CoordinatorService::Submit(
    workload::TransactionSpec spec) {
  auto done = sim::MakeCompletion<sim::Unit>(&system_.sim());
  // Transaction state (object + control block) lives in the simulation's
  // arena: transactions are a fixed closed population (<= NumTerminals
  // live), created and destroyed once per terminal cycle.
  auto txn = std::allocate_shared<Transaction>(
      sim::ArenaAllocator<Transaction>(system_.sim().arena()), next_id_++,
      std::move(spec), system_.sim().Now(), done);
  live_.emplace(txn->id(), txn);
  StartAttempt(txn, /*first_attempt=*/true);
  return done;
}

void CoordinatorService::StartAttempt(const TxnPtr& txn, bool first_attempt) {
  txn->BeginAttempt(system_.sim().Now());
  StartAttemptProcess(txn, first_attempt);
  ArmPhaseTimer(txn);
}

sim::Process CoordinatorService::StartAttemptProcess(TxnPtr txn,
                                                     bool first_attempt) {
  // The coordinator process itself is started once per transaction
  // (InstPerStartup at the host); cohort processes restart on every attempt.
  int attempt = txn->attempt();
  if (first_attempt) {
    co_await system_.resources(kHostNode).cpu().Execute(
        system_.config().costs.inst_per_startup, CpuJobClass::kUser);
    if (txn->IsStaleAttempt(attempt) || txn->phase() != TxnPhase::kRunning)
      co_return;
  }
  txn->exec_start_time = system_.sim().Now();  // host startup is behind us
  if (txn->spec().exec_pattern == config::ExecPattern::kParallel) {
    for (int i = 0; i < txn->num_cohorts(); ++i) SendLoad(txn, i);
  } else {
    SendLoad(txn, 0);  // sequential: chain via OnCohortReady
  }
}

void CoordinatorService::SendLoad(const TxnPtr& txn, int cohort_index) {
  txn->cohort(cohort_index).load_sent = true;
  ++txn->loads_sent;
  int attempt = txn->attempt();
  NodeId node = txn->cohort_spec(cohort_index).node;
  // The LOAD ships the cohort's page-access list; its wire size scales with
  // the access count under the byte-counting network models.
  system_.network().Send(kHostNode, node, net::MsgTag::kLoadCohort,
                         [this, txn, attempt, cohort_index] {
                           cohorts_->HandleLoad(txn, attempt, cohort_index);
                         },
                         static_cast<std::uint32_t>(
                             txn->cohort_spec(cohort_index).accesses.size()));
}

void CoordinatorService::OnCohortReady(const TxnPtr& txn, int attempt,
                                       int cohort_index) {
  (void)cohort_index;
  if (txn->IsStaleAttempt(attempt) || txn->phase() != TxnPhase::kRunning)
    return;
  ++txn->ready_count;
  if (txn->ready_count < txn->num_cohorts()) {
    if (txn->spec().exec_pattern == config::ExecPattern::kSequential) {
      SendLoad(txn, txn->ready_count);  // next cohort in line
    }
    ArmPhaseTimer(txn);  // progress: restart the silence clock
    return;
  }
  // All cohorts done: enter the commit protocol with a globally unique
  // certification timestamp (used by OPT).
  txn->set_phase(TxnPhase::kPreparing);
  txn->prepare_start_time = system_.sim().Now();
  txn->set_commit_ts(Timestamp{system_.sim().Now(), txn->id()});
  SendPrepares(txn);
  ArmPhaseTimer(txn);
}

void CoordinatorService::SendPrepares(const TxnPtr& txn) {
  int attempt = txn->attempt();
  for (int i = 0; i < txn->num_cohorts(); ++i) {
    NodeId node = txn->cohort_spec(i).node;
    system_.network().Send(kHostNode, node, net::MsgTag::kPrepare,
                           [this, txn, attempt, i] {
                             cohorts_->HandlePrepare(txn, attempt, i);
                           });
  }
}

void CoordinatorService::OnVote(const TxnPtr& txn, int attempt,
                                int cohort_index, cc::Vote vote) {
  (void)cohort_index;
  if (txn->IsStaleAttempt(attempt) || txn->phase() != TxnPhase::kPreparing)
    return;
  ++txn->votes_received;
  if (vote == cc::Vote::kNo) {
    BeginAbort(txn, AbortReason::kCertification);
    return;
  }
  if (txn->votes_received == txn->num_cohorts()) {
    txn->set_phase(TxnPhase::kCommitting);
    SendDecision(txn);
  } else {
    ArmPhaseTimer(txn);
  }
}

void CoordinatorService::SendDecision(const TxnPtr& txn) {
  const TxnPhase decision = txn->phase();
  const bool commit = decision == TxnPhase::kCommitting;
  int attempt = txn->attempt();
  for (int i = 0; i < txn->num_cohorts(); ++i) {
    CohortRuntime& c = txn->cohort(i);
    // Only cohorts loaded this attempt take part (at commit, every cohort
    // is); a resend pass skips those whose ack is already counted.
    if (!c.load_sent || c.ack_counted) continue;
    NodeId node = txn->cohort_spec(i).node;
    if (!system_.NodeUp(node)) {
      // The cohort's node is down: presume its ack (the decision is durable
      // at the host, and the crash drained the cohort's state) so the round
      // terminates instead of waiting for a message that cannot arrive.
      c.ack_counted = true;
      ++txn->acks;
      continue;
    }
    system_.network().Send(kHostNode, node,
                           commit ? net::MsgTag::kCommit : net::MsgTag::kAbort,
                           [this, txn, attempt, i, commit] {
                             if (commit) {
                               cohorts_->HandleCommit(txn, attempt, i);
                             } else {
                               cohorts_->HandleAbort(txn, attempt, i);
                             }
                           });
  }
  // Zero-cost messages deliver synchronously, so the acks (and the end of
  // the round) may already have happened inside the loop above.
  if (txn->phase() != decision) return;
  if (txn->acks == txn->loads_sent) {
    FinishDecision(txn);
    return;
  }
  ArmPhaseTimer(txn);
}

void CoordinatorService::OnAck(const TxnPtr& txn, int attempt,
                               int cohort_index) {
  // Fault-free, a stale or out-of-phase ack is impossible; with resends and
  // forced terminations a duplicate or late ack is legitimate protocol
  // traffic - ignore it.
  if (txn->IsStaleAttempt(attempt)) return;
  if (txn->phase() != TxnPhase::kCommitting &&
      txn->phase() != TxnPhase::kAborting) {
    return;
  }
  CohortRuntime& c = txn->cohort(cohort_index);
  if (c.ack_counted) return;
  c.ack_counted = true;
  ++txn->acks;
  if (txn->acks == txn->loads_sent) {
    FinishDecision(txn);
  } else {
    ArmPhaseTimer(txn);
  }
}

void CoordinatorService::FinishDecision(const TxnPtr& txn) {
  if (txn->phase() == TxnPhase::kCommitting) {
    FinalizeCommit(txn);
  } else {
    DisarmPhaseTimer(txn);
    ScheduleRestart(txn);
  }
}

void CoordinatorService::FinalizeCommit(const TxnPtr& txn) {
  DisarmPhaseTimer(txn);
  txn->set_phase(TxnPhase::kCommitted);
  ++commits_;
  system_.RecordCommit(*txn);
  txn->done->Complete(sim::Unit{});
  live_.erase(txn->id());
}

void CoordinatorService::BeginAbort(const TxnPtr& txn, AbortReason reason) {
  CCSIM_CHECK(txn->phase() == TxnPhase::kRunning ||
              txn->phase() == TxnPhase::kPreparing);
  txn->set_phase(TxnPhase::kAborting);
  ++txn->total_aborts;
  ++aborts_;
  ++aborts_by_reason_[static_cast<std::size_t>(reason)];
  SendDecision(txn);
}

void CoordinatorService::ScheduleRestart(const TxnPtr& txn) {
  const config::OverloadParams& ov = system_.config().overload;
  // Graceful degradation (overload extension): give up instead of retrying
  // forever when the transaction can no longer meet its deadline or has
  // spent its restart budget. Checked here - the single point every abort
  // path (CC aborts, timeouts, forced terminations, node crashes) funnels
  // through on its way back to execution.
  if (ov.txn_deadline_sec > 0.0 &&
      system_.sim().Now() - txn->origin_time() >= ov.txn_deadline_sec) {
    Abandon(txn, /*deadline_exceeded=*/true);
    return;
  }
  if (ov.max_restarts >= 0 && txn->total_aborts > ov.max_restarts) {
    Abandon(txn, /*deadline_exceeded=*/false);
    return;
  }
  txn->set_phase(TxnPhase::kRestartWait);
  double delay = RestartDelay(txn);
  // ccsim-analyze: coro-ok(CoordinatorService lives in System beyond the calendar; txn is a shared_ptr kept alive by the capture)
  system_.sim().After(delay, [this, txn] {
    if (system_.config().workload.fake_restarts) {
      txn->ReplaceSpec(system_.RegenerateSpec(txn->spec()));
    }
    StartAttempt(txn, /*first_attempt=*/false);
  });
}

double CoordinatorService::RestartDelay(const TxnPtr& txn) const {
  const config::OverloadParams& ov = system_.config().overload;
  if (ov.restart_backoff_base_sec > 0.0) {
    // Capped exponential backoff: restart k (== total_aborts) waits
    // base * 2^(k-1), clamped. ldexp is exact, and overflow saturates to
    // +inf which the min() clamps.
    return std::min(ov.restart_backoff_cap_sec,
                    std::ldexp(ov.restart_backoff_base_sec,
                               txn->total_aborts - 1));
  }
  return system_.RestartDelay();
}

void CoordinatorService::Abandon(const TxnPtr& txn, bool deadline_exceeded) {
  DisarmPhaseTimer(txn);
  txn->set_phase(TxnPhase::kAbandoned);
  if (deadline_exceeded) {
    ++abandoned_deadline_;
  } else {
    ++abandoned_retry_exhausted_;
  }
  // Giving up on a transaction resolves it: forward progress for the
  // watchdog's stall clock even when nothing commits under overload.
  system_.sim().NoteProgress();
  txn->done->Complete(sim::Unit{});
  live_.erase(txn->id());
}

void CoordinatorService::OnAbortRequest(const TxnPtr& txn, int attempt,
                                        AbortReason reason) {
  if (txn->IsStaleAttempt(attempt)) return;
  if (txn->phase() != TxnPhase::kRunning &&
      txn->phase() != TxnPhase::kPreparing) {
    return;  // committing (wound not fatal), already aborting, or done
  }
  BeginAbort(txn, reason);
}

// --- fault hardening ------------------------------------------------------

void CoordinatorService::ArmPhaseTimer(const TxnPtr& txn) {
  const config::FaultParams& f = system_.config().faults;
  if (!f.any() || f.msg_timeout_sec <= 0.0) return;
  DisarmPhaseTimer(txn);
  int attempt = txn->attempt();
  // ccsim-analyze: coro-ok(CoordinatorService lives in System beyond the calendar; txn is a shared_ptr kept alive by the capture and the attempt guard rejects stale fires)
  txn->phase_timer =
      system_.sim().After(f.msg_timeout_sec, [this, txn, attempt] {
        txn->phase_timer = 0;
        OnPhaseTimeout(txn, attempt);
      });
}

void CoordinatorService::DisarmPhaseTimer(const TxnPtr& txn) {
  if (txn->phase_timer != 0) {
    system_.sim().Cancel(txn->phase_timer);
    txn->phase_timer = 0;
  }
}

void CoordinatorService::OnPhaseTimeout(const TxnPtr& txn, int attempt) {
  if (txn->IsStaleAttempt(attempt)) return;
  const config::FaultParams& f = system_.config().faults;
  switch (txn->phase()) {
    case TxnPhase::kRunning:
    case TxnPhase::kPreparing:
      // Presumed abort: no reply for a whole timeout window before the
      // commit point means a participant or its messages are gone.
      BeginAbort(txn, AbortReason::kCommTimeout);
      break;
    case TxnPhase::kCommitting:
    case TxnPhase::kAborting:
      if (txn->decision_resends < f.max_decision_resends) {
        ++txn->decision_resends;
        SendDecision(txn);  // resends to un-acked cohorts only; rearms
      } else {
        ForceTerminate(txn);
      }
      break;
    case TxnPhase::kRestartWait:
    case TxnPhase::kCommitted:
    case TxnPhase::kAbandoned:
      break;  // already resolved; stray timer
  }
}

void CoordinatorService::ForceTerminate(const TxnPtr& txn) {
  ++forced_terminations_;
  DisarmPhaseTimer(txn);
  bool committing = txn->phase() == TxnPhase::kCommitting;
  for (int i = 0; i < txn->num_cohorts(); ++i) {
    CohortRuntime& c = txn->cohort(i);
    if (!c.load_sent || c.ack_counted) continue;
    NodeId node = txn->cohort_spec(i).node;
    if (!c.decision_handled && system_.NodeUp(node)) {
      // The cohort is reachable but its acks never made it through the
      // configured resends; apply the decision out of band (modeling the
      // termination protocol a real system would run) so no lock is held
      // forever by a decided transaction.
      c.decision_handled = true;
      if (committing) {
        system_.cc_at(node)->CommitCohort(txn, i);
      } else {
        c.abort_flag = true;
        system_.cc_at(node)->AbortCohort(txn, i);
      }
    }
    c.ack_counted = true;
    ++txn->acks;
  }
  FinishDecision(txn);
}

void CoordinatorService::OnNodeCrash(NodeId node) {
  // Snapshot and sort the victims: live_ is an unordered map, and the order
  // in which transactions are drained is observable (CC wakeups, counters).
  std::vector<TxnPtr> victims;
  victims.reserve(live_.size());
  // ccsim-analyze: unordered-iter-ok(sorted below)
  for (const auto& entry : live_) {
    const TxnPtr& txn = entry.second;
    if (txn->phase() == TxnPhase::kRestartWait) continue;  // nothing on nodes
    for (int i = 0; i < txn->num_cohorts(); ++i) {
      if (txn->cohort_spec(i).node == node) {
        victims.push_back(txn);
        break;
      }
    }
  }
  std::sort(victims.begin(), victims.end(),
            [](const TxnPtr& a, const TxnPtr& b) { return a->id() < b->id(); });

  for (const TxnPtr& txn : victims) {
    // Drain the crashed node's share of the transaction: silence the cohort
    // coroutine and release its CC state (locks, queue entries), waking any
    // waiters. In-flight work at the node is discarded with it.
    for (int i = 0; i < txn->num_cohorts(); ++i) {
      if (txn->cohort_spec(i).node != node) continue;
      CohortRuntime& c = txn->cohort(i);
      if (c.load_sent && !c.decision_handled) {
        c.decision_handled = true;
        c.abort_flag = true;
        system_.cc_at(node)->AbortCohort(txn, i);
      }
    }
    switch (txn->phase()) {
      case TxnPhase::kRunning:
      case TxnPhase::kPreparing:
        BeginAbort(txn, AbortReason::kNodeCrash);
        break;
      case TxnPhase::kCommitting:
      case TxnPhase::kAborting:
        // The decision stands (past the commit point, or the abort already
        // under way): the crashed node's acks are presumed (recovery
        // re-converges it), which may complete the round.
        for (int i = 0; i < txn->num_cohorts(); ++i) {
          CohortRuntime& c = txn->cohort(i);
          if (txn->cohort_spec(i).node != node || !c.load_sent ||
              c.ack_counted) {
            continue;
          }
          c.ack_counted = true;
          ++txn->acks;
        }
        if (txn->acks == txn->loads_sent) FinishDecision(txn);
        break;
      case TxnPhase::kRestartWait:
      case TxnPhase::kCommitted:
      case TxnPhase::kAbandoned:
        break;  // already resolved
    }
  }
}

}  // namespace ccsim::txn
