#include "ccsim/txn/cohort.h"

#include "ccsim/engine/system.h"
#include "ccsim/sim/check.h"
#include "ccsim/txn/coordinator.h"

namespace ccsim::txn {

using resource::CpuJobClass;
using resource::DiskOp;

CohortService::CohortService(engine::System* system) : system_(*system) {}

sim::Arena* CohortService::process_arena() { return system_.sim().arena(); }

AbortReason CohortService::SelfAbortReason() const {
  switch (system_.config().algorithm) {
    case config::CcAlgorithm::kWaitDie:
      return AbortReason::kDie;
    case config::CcAlgorithm::kTwoPhaseLockingTimeout:
      return AbortReason::kTimeout;
    default:
      return AbortReason::kTimestampOrder;  // BTO rejection
  }
}

void CohortService::HandleLoad(const TxnPtr& txn, int attempt,
                               int cohort_index) {
  if (txn->IsStaleAttempt(attempt)) return;
  if (txn->cohort(cohort_index).abort_flag) return;  // abort raced the load
  RunCohort(txn, attempt, cohort_index);
}

sim::Process CohortService::RunCohort(TxnPtr txn, int attempt,
                                      int cohort_index) {
  const workload::CohortSpec& spec = txn->cohort_spec(cohort_index);
  NodeId node = spec.node;
  resource::ResourceManager& resources = system_.resources(node);
  cc::CcManager* cc = system_.cc_at(node);
  const auto& cls = system_.config().workload.classes[static_cast<std::size_t>(
      txn->spec().class_index)];

  // Process initiation (InstPerStartup) at the cohort's node.
  co_await resources.cpu().Execute(system_.config().costs.inst_per_startup,
                                   CpuJobClass::kUser);
  if (txn->IsStaleAttempt(attempt) || txn->cohort(cohort_index).abort_flag)
    co_return;

  cc->BeginCohort(txn, cohort_index);
  for (const workload::PageAccess& access : spec.accesses) {
    // Concurrency control request (InstPerCCReq of CPU, usually 0).
    if (system_.config().costs.inst_per_cc_req > 0) {
      co_await resources.cpu().Execute(system_.config().costs.inst_per_cc_req,
                                       CpuJobClass::kUser);
      if (txn->IsStaleAttempt(attempt) || txn->cohort(cohort_index).abort_flag)
        co_return;
    }
    cc::AccessOutcome outcome = co_await sim::Await(cc->RequestAccess(
        txn, cohort_index, access.page,
        access.is_write ? AccessMode::kWrite : AccessMode::kRead));
    if (txn->IsStaleAttempt(attempt)) co_return;
    if (outcome == cc::AccessOutcome::kAborted) {
      if (!txn->cohort(cohort_index).abort_flag) {
        // Self-detected rejection (BTO out-of-order access, wait-die death,
        // or lock-wait timeout): inform the coordinator; cleanup happens
        // when its ABORT message returns.
        AbortReason reason = SelfAbortReason();
        system_.network().Send(node, kHostNode, net::MsgTag::kCohortAborted,
                               [this, txn, attempt, reason] {
                                 coord_->OnAbortRequest(txn, attempt, reason);
                               });
      }
      co_return;
    }
    if (txn->cohort(cohort_index).abort_flag) co_return;

    if (!access.is_write) {
      // Synchronous read I/O; updated pages defer their I/O to after commit.
      co_await resources.DiskAccess(DiskOp::kRead);
      if (txn->IsStaleAttempt(attempt) || txn->cohort(cohort_index).abort_flag)
        co_return;
    }

    // Page processing: exponentially distributed around InstPerPage.
    double instructions =
        system_.node_rng(node).Exponential(cls.inst_per_page);
    co_await resources.cpu().Execute(instructions, CpuJobClass::kUser);
    if (txn->IsStaleAttempt(attempt) || txn->cohort(cohort_index).abort_flag)
      co_return;
  }

  system_.network().Send(node, kHostNode, net::MsgTag::kCohortReady,
                         [this, txn, attempt, cohort_index] {
                           coord_->OnCohortReady(txn, attempt, cohort_index);
                         });

  // Cohort-side presumed abort (fault runs only): READY is out, and until
  // the cohort votes it is not in-doubt, so if no PREPARE (or ABORT) shows
  // up within the timeout it may abort unilaterally instead of holding its
  // locks behind a lost message.
  const config::FaultParams& f = system_.config().faults;
  if (f.any() && f.msg_timeout_sec > 0.0) {
    // ccsim-analyze: coro-ok(CohortService lives in System beyond the calendar; txn is a shared_ptr kept alive by the capture and staleness is re-checked on fire)
    system_.sim().After(
        f.msg_timeout_sec, [this, txn, attempt, cohort_index, node] {
          if (txn->IsStaleAttempt(attempt)) return;
          CohortRuntime& c = txn->cohort(cohort_index);
          if (c.voted || c.abort_flag || c.decision_handled) {
            return;  // progressed
          }
          c.decision_handled = true;
          c.abort_flag = true;
          system_.cc_at(node)->AbortCohort(txn, cohort_index);
          system_.network().Send(
              node, kHostNode, net::MsgTag::kCohortAborted,
              [this, txn, attempt] {
                coord_->OnAbortRequest(txn, attempt,
                                       AbortReason::kCommTimeout);
              });
        });
  }
}

void CohortService::HandlePrepare(const TxnPtr& txn, int attempt,
                                  int cohort_index) {
  if (txn->IsStaleAttempt(attempt)) return;
  if (txn->cohort(cohort_index).abort_flag) return;  // abort raced; moot
  PrepareProcess(txn, attempt, cohort_index);
}

sim::Process CohortService::PrepareProcess(TxnPtr txn, int attempt,
                                           int cohort_index) {
  NodeId node = txn->cohort_spec(cohort_index).node;
  // Most managers vote immediately; 2PL-DW may block here while its write
  // locks upgrade.
  cc::Vote vote =
      co_await sim::Await(system_.cc_at(node)->Prepare(txn, cohort_index));
  if (txn->IsStaleAttempt(attempt) || txn->cohort(cohort_index).abort_flag)
    co_return;  // aborted while preparing; the vote is moot
  txn->cohort(cohort_index).voted = true;  // in-doubt from here on
  system_.network().Send(node, kHostNode, net::MsgTag::kVote,
                         [this, txn, attempt, cohort_index, vote] {
                           coord_->OnVote(txn, attempt, cohort_index, vote);
                         });
}

void CohortService::HandleCommit(const TxnPtr& txn, int attempt,
                                 int cohort_index) {
  // Fault-free this is never stale (it used to be a CCSIM_CHECK); with
  // decision resends a duplicate COMMIT is normal - apply once, re-ack
  // every time (the previous ack may have been the message that was lost).
  if (txn->IsStaleAttempt(attempt)) return;
  NodeId node = txn->cohort_spec(cohort_index).node;
  CohortRuntime& c = txn->cohort(cohort_index);
  if (!c.decision_handled) {
    c.decision_handled = true;
    system_.cc_at(node)->CommitCohort(txn, cohort_index);
    // Kick off the asynchronous write-back of every updated page.
    for (const workload::PageAccess& access :
         txn->cohort_spec(cohort_index).accesses) {
      if (access.is_write) AsyncPageWrite(node);
    }
  }
  system_.network().Send(node, kHostNode, net::MsgTag::kAck,
                         [this, txn, attempt, cohort_index] {
                           coord_->OnAck(txn, attempt, cohort_index);
                         });
}

sim::Process CohortService::AsyncPageWrite(NodeId node) {
  // InstPerUpdate of CPU to initiate, then the transfer on a random disk
  // (write-priority queue). Nothing awaits this process.
  co_await system_.resources(node).cpu().Execute(
      system_.config().costs.inst_per_update, CpuJobClass::kUser);
  co_await system_.resources(node).DiskAccess(DiskOp::kWrite);
}

void CohortService::HandleAbort(const TxnPtr& txn, int attempt,
                                int cohort_index) {
  if (txn->IsStaleAttempt(attempt)) return;
  NodeId node = txn->cohort_spec(cohort_index).node;
  CohortRuntime& c = txn->cohort(cohort_index);
  if (!c.decision_handled) {
    c.decision_handled = true;
    // Order matters: the flag silences the cohort coroutine before cleanup
    // wakes any request it has blocked in the CC manager.
    c.abort_flag = true;
    system_.cc_at(node)->AbortCohort(txn, cohort_index);
  }
  // Always (re-)acknowledge: under faults this may be a resent ABORT whose
  // first ack was dropped, or a duplicate after a unilateral cohort abort.
  system_.network().Send(node, kHostNode, net::MsgTag::kAck,
                         [this, txn, attempt, cohort_index] {
                           coord_->OnAck(txn, attempt, cohort_index);
                         });
}

}  // namespace ccsim::txn
