#ifndef CCSIM_CC_OPTIMISTIC_H_
#define CCSIM_CC_OPTIMISTIC_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ccsim/cc/cc_manager.h"
#include "ccsim/common/types.h"

namespace ccsim::cc {

/// Distributed, timestamp-based optimistic concurrency control
/// (Sec 2.5, the first algorithm of [Sinh85]).
///
/// Execution never blocks or aborts: cohorts read freely (remembering the
/// version - the write timestamp - of each item read) and buffer updates in a
/// private workspace. When all cohorts finish, the coordinator assigns the
/// transaction a globally unique commit timestamp and sends it in the
/// "prepare" message; each cohort then certifies its reads and writes
/// locally, atomically (a critical section; the simulation is
/// single-threaded, so Prepare runs indivisibly):
///
///  * a read is certified iff the version it read is still the current
///    committed version AND no uncommitted write on the item has been
///    locally certified (such a write would create a version the read
///    should or could not have seen);
///  * a write at commit ts c is certified iff no read with a timestamp
///    later than c has committed (rts <= c) AND no later read is currently
///    locally certified.
///
/// On commit, certified writes install (wts = c), certified reads bump rts,
/// and the in-doubt entries clear; on abort the entries just clear.
class OptimisticManager : public CcManager {
 public:
  using CcManager::CcManager;

  std::shared_ptr<sim::Completion<AccessOutcome>> RequestAccess(
      const txn::TxnPtr& txn, int cohort_index, const PageRef& page,
      AccessMode mode) override;
  /// Runs the local certification atomically; the vote is available
  /// immediately (certification is a critical section, Sec 2.5).
  std::shared_ptr<sim::Completion<Vote>> Prepare(const txn::TxnPtr& txn,
                                                 int cohort_index) override;
  void CommitCohort(const txn::TxnPtr& txn, int cohort_index) override;
  void AbortCohort(const txn::TxnPtr& txn, int cohort_index) override;

  std::uint64_t certification_failures() const { return cert_failures_; }

 private:
  Vote Certify(const txn::TxnPtr& txn, int cohort_index);

  struct Item {
    Timestamp rts = kTimestampZero;
    Timestamp wts = kTimestampZero;  // doubles as the current version id
    // In-doubt (certified, not yet committed) operations, by transaction.
    std::map<TxnId, Timestamp> cert_reads;
    std::map<TxnId, Timestamp> cert_writes;
  };
  struct TxnLocal {
    std::vector<std::pair<std::uint64_t, Timestamp>> reads;  // key, version
    std::vector<std::uint64_t> writes;
    bool certified = false;
  };

  std::unordered_map<std::uint64_t, Item> items_;
  std::unordered_map<TxnId, TxnLocal> txn_state_;
  std::uint64_t cert_failures_ = 0;
};

}  // namespace ccsim::cc

#endif  // CCSIM_CC_OPTIMISTIC_H_
