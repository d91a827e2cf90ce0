#ifndef CCSIM_CC_NO_DC_H_
#define CCSIM_CC_NO_DC_H_

#include <memory>

#include "ccsim/cc/cc_manager.h"

namespace ccsim::cc {

/// The NO_DC ("no data contention") ideal of Sec 4.2: behaves like 2PL over
/// an infinitely large database, so no request ever conflicts. Every access
/// is granted immediately and nothing ever aborts. Used as the baseline the
/// paper plots alongside the four real algorithms. Histories produced under
/// NO_DC are generally *not* serializable; the serializability audit is not
/// applicable to it.
class NoDcManager : public CcManager {
 public:
  using CcManager::CcManager;

  std::shared_ptr<sim::Completion<AccessOutcome>> RequestAccess(
      const txn::TxnPtr& txn, int cohort_index, const PageRef& page,
      AccessMode mode) override {
    (void)cohort_index;
    auto completion = sim::MakeCompletion<AccessOutcome>(&ctx_->simulation());
    if (mode == AccessMode::kRead) ctx_->AuditRead(*txn, page);
    completion->Complete(AccessOutcome::kGranted);
    return completion;
  }

  void CommitCohort(const txn::TxnPtr& txn, int cohort_index) override {
    const auto& spec = txn->cohort_spec(cohort_index);
    for (const auto& access : spec.accesses) {
      if (access.is_write) ctx_->AuditInstallWrite(*txn, access.page);
    }
  }

  void AbortCohort(const txn::TxnPtr& txn, int cohort_index) override {
    (void)txn;
    (void)cohort_index;
  }
};

}  // namespace ccsim::cc

#endif  // CCSIM_CC_NO_DC_H_
