#include "ccsim/cc/lock_table.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace ccsim::cc {
namespace {

using test::MakeTxn;

class LockTableTest : public ::testing::Test {
 protected:
  AccessOutcome Value(
      const std::shared_ptr<sim::Completion<AccessOutcome>>& c) {
    EXPECT_TRUE(c->done());
    return c->TakeValue();
  }
  /// Commit (abort = false) or abort release of `t`'s single cohort.
  void Release(const txn::TxnPtr& t, bool abort) {
    table_.ReleaseAll(t->id(), t->cohort_spec(0).accesses, abort);
  }

  sim::Simulation sim_;
  LockTable table_{&sim_};
  PageRef page_{0, 1};
  PageRef page2_{0, 2};
};

TEST_F(LockTableTest, FirstSharedRequestGrants) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto r = table_.Request(t1, page_, LockMode::kShared);
  EXPECT_TRUE(r.granted_immediately);
  EXPECT_EQ(Value(r.completion), AccessOutcome::kGranted);
  EXPECT_TRUE(table_.HoldsLock(1, page_));
}

TEST_F(LockTableTest, SharedLocksShare) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  table_.Request(t1, page_, LockMode::kShared);
  auto r2 = table_.Request(t2, page_, LockMode::kShared);
  EXPECT_TRUE(r2.granted_immediately);
  EXPECT_TRUE(table_.HoldsLock(1, page_));
  EXPECT_TRUE(table_.HoldsLock(2, page_));
}

TEST_F(LockTableTest, ExclusiveConflictsWithShared) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  table_.Request(t1, page_, LockMode::kShared);
  auto r2 = table_.Request(t2, page_, LockMode::kExclusive);
  EXPECT_FALSE(r2.granted_immediately);
  ASSERT_EQ(r2.blockers.size(), 1u);
  EXPECT_EQ(r2.blockers[0]->id(), 1u);
  EXPECT_TRUE(table_.IsWaiting(2));
}

TEST_F(LockTableTest, SharedConflictsWithExclusive) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  table_.Request(t1, page_, LockMode::kExclusive);
  auto r2 = table_.Request(t2, page_, LockMode::kShared);
  EXPECT_FALSE(r2.granted_immediately);
}

TEST_F(LockTableTest, ReleaseWakesWaiterInFifoOrder) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  auto t3 = MakeTxn(3, 1, {page_});
  table_.Request(t1, page_, LockMode::kExclusive);
  auto r2 = table_.Request(t2, page_, LockMode::kExclusive);
  auto r3 = table_.Request(t3, page_, LockMode::kExclusive);
  Release(t1, false);
  EXPECT_TRUE(r2.completion->done());
  EXPECT_FALSE(r3.completion->done());
  EXPECT_EQ(Value(r2.completion), AccessOutcome::kGranted);
  Release(t2, false);
  EXPECT_EQ(Value(r3.completion), AccessOutcome::kGranted);
}

TEST_F(LockTableTest, ReleaseGrantsAllCompatibleSharedWaiters) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  auto t3 = MakeTxn(3, 1, {page_});
  table_.Request(t1, page_, LockMode::kExclusive);
  auto r2 = table_.Request(t2, page_, LockMode::kShared);
  auto r3 = table_.Request(t3, page_, LockMode::kShared);
  Release(t1, false);
  EXPECT_TRUE(r2.completion->done());
  EXPECT_TRUE(r3.completion->done());
}

TEST_F(LockTableTest, CompatibleRequestBehindWaiterStillQueues) {
  // No queue jumping: S behind a queued X waits even though it is
  // compatible with the current S holder.
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  auto t3 = MakeTxn(3, 1, {page_});
  table_.Request(t1, page_, LockMode::kShared);
  auto rx = table_.Request(t2, page_, LockMode::kExclusive);
  auto rs = table_.Request(t3, page_, LockMode::kShared);
  EXPECT_FALSE(rs.granted_immediately);
  // t3 waits for both the X waiter ahead and (not) the compatible holder.
  ASSERT_EQ(rs.blockers.size(), 1u);
  EXPECT_EQ(rs.blockers[0]->id(), 2u);
}

TEST_F(LockTableTest, RerequestHeldModeGrantsImmediately) {
  auto t1 = MakeTxn(1, 1, {page_});
  table_.Request(t1, page_, LockMode::kShared);
  auto again = table_.Request(t1, page_, LockMode::kShared);
  EXPECT_TRUE(again.granted_immediately);
  auto weaker = table_.Request(t1, page_, LockMode::kShared);
  EXPECT_TRUE(weaker.granted_immediately);
}

TEST_F(LockTableTest, SoleHolderUpgradesInPlace) {
  auto t1 = MakeTxn(1, 1, {page_});
  table_.Request(t1, page_, LockMode::kShared);
  auto up = table_.Request(t1, page_, LockMode::kExclusive);
  EXPECT_TRUE(up.granted_immediately);
  // Now exclusive: another shared request must wait.
  auto t2 = MakeTxn(2, 1, {page_});
  EXPECT_FALSE(table_.Request(t2, page_, LockMode::kShared)
                   .granted_immediately);
}

TEST_F(LockTableTest, UpgradeWithOtherHoldersWaitsAtFront) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  auto t3 = MakeTxn(3, 1, {page_});
  table_.Request(t1, page_, LockMode::kShared);
  table_.Request(t2, page_, LockMode::kShared);
  auto r3 = table_.Request(t3, page_, LockMode::kExclusive);  // queued
  auto up = table_.Request(t1, page_, LockMode::kExclusive);  // upgrade
  EXPECT_FALSE(up.granted_immediately);
  // Upgrade blockers: the other shared holder (t2), not itself.
  ASSERT_EQ(up.blockers.size(), 1u);
  EXPECT_EQ(up.blockers[0]->id(), 2u);
  // When t2 releases, the upgrade is granted before t3's exclusive.
  Release(t2, false);
  EXPECT_TRUE(up.completion->done());
  EXPECT_FALSE(r3.completion->done());
}

TEST_F(LockTableTest, AbortReleaseCompletesWaitersWithAborted) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  table_.Request(t1, page_, LockMode::kExclusive);
  auto r2 = table_.Request(t2, page_, LockMode::kShared);
  Release(t2, true);  // t2 aborts while waiting
  EXPECT_EQ(Value(r2.completion), AccessOutcome::kAborted);
  // The lock is still held by t1.
  EXPECT_TRUE(table_.HoldsLock(1, page_));
  EXPECT_FALSE(table_.IsWaiting(2));
}

TEST_F(LockTableTest, ReleaseAllCoversMultiplePages) {
  auto t1 = MakeTxn(1, 1, {page_, page2_});
  table_.Request(t1, page_, LockMode::kShared);
  table_.Request(t1, page2_, LockMode::kExclusive);
  EXPECT_EQ(table_.num_locked_pages(), 2u);
  Release(t1, false);
  EXPECT_EQ(table_.num_locked_pages(), 0u);
}

TEST_F(LockTableTest, ReleaseUnknownTxnIsNoOp) {
  table_.ReleaseAll(99, MakeTxn(99, 1, {page_})->cohort_spec(0).accesses,
                    true);
  EXPECT_EQ(table_.num_locked_pages(), 0u);
}

TEST_F(LockTableTest, ReleaseAllSkipsPagesTheCohortNeverReached) {
  // t1's cohort would access page_, page2_ and page3, but aborts after
  // locking only page_. Others hold and wait on the pages it never reached;
  // releasing its full access list must leave them exactly as they were.
  const PageRef page3{0, 3};
  auto t1 = MakeTxn(1, 1, {page_, page2_, page3});
  auto t2 = MakeTxn(2, 1, {page2_});
  auto t3 = MakeTxn(3, 1, {page2_});
  auto t4 = MakeTxn(4, 1, {page3});
  auto t5 = MakeTxn(5, 1, {page3});
  int delayed_grants = 0;
  table_.set_on_delayed_grant(
      [&](const txn::TxnPtr&, const PageRef&, LockMode) { ++delayed_grants; });
  table_.Request(t1, page_, LockMode::kExclusive);
  table_.Request(t2, page2_, LockMode::kExclusive);
  auto waiting = table_.Request(t3, page2_, LockMode::kShared);
  table_.Request(t4, page3, LockMode::kShared);
  table_.Request(t5, page3, LockMode::kShared);
  ASSERT_FALSE(waiting.granted_immediately);

  Release(t1, /*abort=*/true);

  EXPECT_FALSE(table_.HoldsLock(1, page_));
  EXPECT_EQ(table_.FindTxn(1), nullptr);
  EXPECT_TRUE(table_.HoldsLock(2, page2_));
  EXPECT_TRUE(table_.HoldsLock(4, page3));
  EXPECT_TRUE(table_.HoldsLock(5, page3));
  EXPECT_FALSE(waiting.completion->done());
  EXPECT_TRUE(table_.IsWaiting(3));
  EXPECT_EQ(table_.num_locked_pages(), 2u);
  EXPECT_EQ(table_.num_waiting_requests(), 1u);
  EXPECT_EQ(delayed_grants, 0);
  EXPECT_EQ(table_.wait_times().count(), 0u);
  auto edges = table_.WaitsForEdges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].waiter, 3u);
  EXPECT_EQ(edges[0].holder, 2u);
  // The untouched waiter still wakes when its real blocker leaves.
  Release(t2, false);
  EXPECT_EQ(Value(waiting.completion), AccessOutcome::kGranted);
}

TEST_F(LockTableTest, RegistryHoldsEachTransactionUntilItsRelease) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  EXPECT_EQ(table_.FindTxn(2), nullptr);
  table_.Register(t2);  // a cohort that has begun but not requested yet
  EXPECT_EQ(table_.FindTxn(2), t2);
  table_.Request(t1, page_, LockMode::kExclusive);
  EXPECT_EQ(table_.FindTxn(1), t1);
  auto r2 = table_.Request(t2, page_, LockMode::kShared);
  ASSERT_EQ(r2.blockers.size(), 1u);
  EXPECT_EQ(r2.blockers[0], t1);
  Release(t1, false);
  EXPECT_EQ(table_.FindTxn(1), nullptr);
  EXPECT_EQ(table_.FindTxn(2), t2);
  Release(t2, false);
  EXPECT_EQ(table_.FindTxn(2), nullptr);
}

TEST_F(LockTableTest, SharedPageBackToOneHolderUpgradesInPlace) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  auto t3 = MakeTxn(3, 1, {page_});
  table_.Request(t1, page_, LockMode::kShared);
  table_.Request(t2, page_, LockMode::kShared);
  Release(t2, false);
  EXPECT_TRUE(
      table_.Request(t1, page_, LockMode::kExclusive).granted_immediately);
  EXPECT_FALSE(
      table_.Request(t3, page_, LockMode::kShared).granted_immediately);
}

TEST_F(LockTableTest, WaitsForEdgesReportWaiterToHolder) {
  auto t1 = MakeTxn(1, 1, {page_}, 0, 1.0);
  auto t2 = MakeTxn(2, 1, {page_}, 0, 2.0);
  table_.Request(t1, page_, LockMode::kExclusive);
  table_.Request(t2, page_, LockMode::kShared);
  auto edges = table_.WaitsForEdges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].waiter, 2u);
  EXPECT_EQ(edges[0].holder, 1u);
  EXPECT_DOUBLE_EQ(edges[0].waiter_ts.time, 2.0);
  EXPECT_DOUBLE_EQ(edges[0].holder_ts.time, 1.0);
}

TEST_F(LockTableTest, WaitsForEdgesIncludeQueuedAheadConflicts) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  auto t3 = MakeTxn(3, 1, {page_});
  table_.Request(t1, page_, LockMode::kExclusive);
  table_.Request(t2, page_, LockMode::kExclusive);
  table_.Request(t3, page_, LockMode::kExclusive);
  auto edges = table_.WaitsForEdges();
  // t2 -> t1; t3 -> t1 and t3 -> t2.
  EXPECT_EQ(edges.size(), 3u);
}

TEST_F(LockTableTest, WaitTimeStatisticsRecordDelays) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  table_.Request(t1, page_, LockMode::kExclusive);
  auto r2 = table_.Request(t2, page_, LockMode::kShared);
  sim_.At(2.5, [&] { Release(t1, false); });
  sim_.Run();
  EXPECT_TRUE(r2.completion->done());
  ASSERT_EQ(table_.wait_times().count(), 1u);
  EXPECT_DOUBLE_EQ(table_.wait_times().mean(), 2.5);
}

TEST_F(LockTableTest, DelayedGrantCallbackFires) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  int called = 0;
  table_.set_on_delayed_grant(
      [&](const txn::TxnPtr& t, const PageRef& p, LockMode m) {
        ++called;
        EXPECT_EQ(t->id(), 2u);
        EXPECT_EQ(p, page_);
        EXPECT_EQ(m, LockMode::kShared);
      });
  table_.Request(t1, page_, LockMode::kExclusive);
  table_.Request(t2, page_, LockMode::kShared);
  EXPECT_EQ(called, 0);
  Release(t1, false);
  EXPECT_EQ(called, 1);
}

TEST_F(LockTableTest, DistinctPagesDoNotConflict) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page2_});
  table_.Request(t1, page_, LockMode::kExclusive);
  auto r2 = table_.Request(t2, page2_, LockMode::kExclusive);
  EXPECT_TRUE(r2.granted_immediately);
}

TEST_F(LockTableTest, QueueJumpGrantsCompatibleRequestDespiteWaiters) {
  table_.set_allow_queue_jump(true);
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  auto t3 = MakeTxn(3, 1, {page_});
  table_.Request(t1, page_, LockMode::kShared);
  auto rx = table_.Request(t2, page_, LockMode::kExclusive);  // waits
  auto rs = table_.Request(t3, page_, LockMode::kShared);     // overtakes
  EXPECT_FALSE(rx.granted_immediately);
  EXPECT_TRUE(rs.granted_immediately);
}

TEST_F(LockTableTest, QueueJumpReleaseGrantsAnyCompatibleWaiter) {
  table_.set_allow_queue_jump(true);
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  auto t3 = MakeTxn(3, 1, {page_});
  auto t4 = MakeTxn(4, 1, {page_});
  table_.Request(t1, page_, LockMode::kExclusive);
  auto rx = table_.Request(t2, page_, LockMode::kExclusive);
  auto rs = table_.Request(t3, page_, LockMode::kShared);
  auto rs2 = table_.Request(t4, page_, LockMode::kShared);
  Release(t1, false);
  // The exclusive waiter at the front is granted; under strict FIFO the
  // shared waiters would now wait, and they still must (t2 holds X).
  EXPECT_TRUE(rx.completion->done());
  EXPECT_FALSE(rs.completion->done());
  EXPECT_FALSE(rs2.completion->done());
  Release(t2, false);
  EXPECT_TRUE(rs.completion->done());
  EXPECT_TRUE(rs2.completion->done());
}

TEST_F(LockTableTest, QueueJumpReleaseSkipsBlockedFrontWaiter) {
  table_.set_allow_queue_jump(true);
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  auto t3 = MakeTxn(3, 1, {page_});
  table_.Request(t1, page_, LockMode::kShared);
  table_.Request(t2, page_, LockMode::kShared);
  // t1 upgrades (front of queue, blocked on t2); t3's shared request then
  // arrives and, under the jump policy, is granted over the queued upgrade.
  auto up = table_.Request(t1, page_, LockMode::kExclusive);
  auto rs = table_.Request(t3, page_, LockMode::kShared);
  EXPECT_FALSE(up.granted_immediately);
  EXPECT_TRUE(rs.granted_immediately);
  // t2 releases; upgrade still blocked by t3's shared lock.
  Release(t2, false);
  EXPECT_FALSE(up.completion->done());
  Release(t3, false);
  EXPECT_TRUE(up.completion->done());
}

TEST_F(LockTableTest, StrictFifoIsTheDefault) {
  EXPECT_FALSE(table_.allow_queue_jump());
}

TEST_F(LockTableTest, CommitReleaseWithPendingWaiterOfSameTxnIsFatal) {
  auto t1 = MakeTxn(1, 1, {page_});
  auto t2 = MakeTxn(2, 1, {page_});
  table_.Request(t1, page_, LockMode::kExclusive);
  table_.Request(t2, page_, LockMode::kShared);
  EXPECT_DEATH(Release(t2, false), "pending");
}

}  // namespace
}  // namespace ccsim::cc
