#ifndef CCSIM_CC_BTO_H_
#define CCSIM_CC_BTO_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ccsim/cc/cc_manager.h"
#include "ccsim/common/types.h"
#include "ccsim/stats/tally.h"

namespace ccsim::cc {

/// Basic timestamp ordering (Sec 2.4, [Bern80/Bern81]).
///
/// Each data item carries a committed read timestamp (rts) and write
/// timestamp (wts); conflicting accesses must occur in timestamp order,
/// where a transaction's timestamp is its (per-attempt) startup timestamp.
///
///  * Read at ts: rejected if ts < wts. If a granted-but-uncommitted
///    ("pending") write with an earlier timestamp exists, the reader blocks
///    until that write commits or aborts (readers must not see uncommitted
///    data; a pending write locks out later reads until it becomes visible).
///    Otherwise granted; rts = max(rts, ts).
///  * Write at ts: rejected if ts < rts. If ts < wts the Thomas write rule
///    applies: the write is granted but will never be installed. Otherwise
///    the write is queued as pending, in timestamp order, without blocking
///    the writer (updates live in a private workspace until commit).
///
/// Rejections surface as AccessOutcome::kAborted to the requesting cohort.
/// Waits are always younger-reader-for-older-writer, so no deadlock is
/// possible and no detector is needed.
///
/// Commit and abort find a cohort's pending writes and blocked reads by
/// walking its spec's accesses: a cohort requests each of its (distinct)
/// pages once, in spec order, so the items hold all of its state here.
class BtoManager : public CcManager {
 public:
  using CcManager::CcManager;

  std::shared_ptr<sim::Completion<AccessOutcome>> RequestAccess(
      const txn::TxnPtr& txn, int cohort_index, const PageRef& page,
      AccessMode mode) override;
  void CommitCohort(const txn::TxnPtr& txn, int cohort_index) override;
  void AbortCohort(const txn::TxnPtr& txn, int cohort_index) override;

  const stats::Tally* blocking_times() const override { return &wait_times_; }
  void ResetStats() override { wait_times_.Reset(); }

  std::uint64_t rejections() const { return rejections_; }
  std::uint64_t thomas_skips() const { return thomas_skips_; }
  std::size_t blocked_readers() const { return blocked_readers_; }

 private:
  struct PendingWrite {
    Timestamp ts;
    txn::TxnPtr txn;
  };
  struct BlockedRead {
    Timestamp ts;
    txn::TxnPtr txn;
    std::shared_ptr<sim::Completion<AccessOutcome>> completion;
    sim::SimTime since;
  };
  struct Item {
    Timestamp rts = kTimestampZero;
    Timestamp wts = kTimestampZero;
    std::vector<PendingWrite> pending_writes;  // ascending timestamp order
    std::vector<BlockedRead> blocked_reads;
  };

  /// Re-examines an item's blocked readers after pending writes changed:
  /// grants those no longer blocked, rejects those now out of order.
  void ReevaluateBlockedReads(std::uint64_t key);

  std::unordered_map<std::uint64_t, Item> items_;
  stats::Tally wait_times_;
  std::uint64_t rejections_ = 0;
  std::uint64_t thomas_skips_ = 0;
  std::size_t blocked_readers_ = 0;
};

}  // namespace ccsim::cc

#endif  // CCSIM_CC_BTO_H_
