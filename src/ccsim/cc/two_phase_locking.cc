#include "ccsim/cc/two_phase_locking.h"

#include "ccsim/cc/waits_for_graph.h"
#include "ccsim/sim/check.h"

namespace ccsim::cc {
namespace {

// Whether `t`'s cohort at `node` reads `page` without updating it.
bool ReadsWithoutUpdate(const txn::Transaction& t, NodeId node,
                        const PageRef& page) {
  for (const workload::CohortSpec& spec : t.spec().cohorts) {
    if (spec.node != node) continue;
    for (const workload::PageAccess& access : spec.accesses) {
      if (access.page == page) return !access.is_write;
    }
  }
  return false;
}

}  // namespace

TwoPhaseLockingManager::TwoPhaseLockingManager(CcContext* ctx, NodeId node)
    : CcManager(ctx, node), lock_table_(&ctx->simulation()) {
  lock_table_.set_allow_queue_jump(ctx->config().locking.queue_jump);
  // Audit the read version at the exact grant time, including grants that
  // happen after a wait (exclusive locks block installs, so the version a
  // shared lock sees at grant time is the one the cohort reads). 2PL-DW
  // locks updates shared until prepare, so only true reads are audited.
  lock_table_.set_on_delayed_grant(
      [this](const txn::TxnPtr& t, const PageRef& page, LockMode mode) {
        if (mode == LockMode::kShared && ReadsWithoutUpdate(*t, node_, page)) {
          ctx_->AuditRead(*t, page);
        }
      });
}

void TwoPhaseLockingManager::BeginCohort(const txn::TxnPtr& txn,
                                         int cohort_index) {
  (void)cohort_index;
  lock_table_.Register(txn);
}

std::shared_ptr<sim::Completion<AccessOutcome>>
TwoPhaseLockingManager::RequestAccess(const txn::TxnPtr& txn, int cohort_index,
                                      const PageRef& page, AccessMode mode) {
  (void)cohort_index;
  auto result = lock_table_.Request(txn, page, LockModeFor(mode));
  if (result.granted_immediately) {
    if (mode == AccessMode::kRead) ctx_->AuditRead(*txn, page);
  } else {
    OnBlocked(txn, page, result);
  }
  return result.completion;
}

// ccsim-analyze: hot-path(once per blocked request)
void TwoPhaseLockingManager::OnBlocked(
    const txn::TxnPtr& txn, const PageRef& page,
    const LockTable::RequestResult& blocked) {
  (void)page;
  (void)blocked;
  const auto& cycle = lock_table_.FindCycleFrom(*txn);
  if (cycle.empty()) return;
  txn::TxnPtr victim = FindTxn(YoungestMember(cycle));
  CCSIM_CHECK_MSG(victim != nullptr, "deadlock victim not registered");
  ctx_->RequestAbort(victim, victim->attempt(), node_,
                     txn::AbortReason::kLocalDeadlock);
}

void TwoPhaseLockingManager::CommitCohort(const txn::TxnPtr& txn,
                                          int cohort_index) {
  // Install this cohort's updates (audit), then release all locks.
  const auto& spec = txn->cohort_spec(cohort_index);
  for (const auto& access : spec.accesses) {
    if (access.is_write) ctx_->AuditInstallWrite(*txn, access.page);
  }
  lock_table_.ReleaseAll(txn->id(), spec.accesses, /*abort_waiters=*/false);
}

void TwoPhaseLockingManager::AbortCohort(const txn::TxnPtr& txn,
                                         int cohort_index) {
  lock_table_.ReleaseAll(txn->id(), txn->cohort_spec(cohort_index).accesses,
                         /*abort_waiters=*/true);
}

}  // namespace ccsim::cc
