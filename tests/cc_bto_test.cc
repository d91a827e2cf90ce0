#include "ccsim/cc/bto.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace ccsim::cc {
namespace {

using test::FakeCcContext;
using test::MakeTxn;

class BtoTest : public ::testing::Test {
 protected:
  BtoTest() : mgr_(&ctx_, /*node=*/1) {}

  AccessOutcome Value(
      const std::shared_ptr<sim::Completion<AccessOutcome>>& c) {
    EXPECT_TRUE(c->done());
    return c->TakeValue();
  }

  FakeCcContext ctx_;
  BtoManager mgr_;
  PageRef p1_{0, 1};
  PageRef p2_{0, 2};
};

TEST_F(BtoTest, ReadsAndWritesGrantOnFreshItems) {
  auto t = MakeTxn(1, 1, {p1_, p2_}, 0b10, 1.0);
  EXPECT_EQ(Value(mgr_.RequestAccess(t, 0, p1_, AccessMode::kRead)),
            AccessOutcome::kGranted);
  EXPECT_EQ(Value(mgr_.RequestAccess(t, 0, p2_, AccessMode::kWrite)),
            AccessOutcome::kGranted);
}

TEST_F(BtoTest, LateReadBehindCommittedWriteRejected) {
  auto writer = MakeTxn(2, 1, {p1_}, 0b1, 5.0);
  auto reader = MakeTxn(1, 1, {p1_}, 0, 1.0);  // older timestamp
  mgr_.RequestAccess(writer, 0, p1_, AccessMode::kWrite);
  mgr_.CommitCohort(writer, 0);  // wts = 5
  auto c = mgr_.RequestAccess(reader, 0, p1_, AccessMode::kRead);
  EXPECT_EQ(Value(c), AccessOutcome::kAborted);
  EXPECT_EQ(mgr_.rejections(), 1u);
}

TEST_F(BtoTest, LateWriteBehindReadRejected) {
  auto reader = MakeTxn(2, 1, {p1_}, 0, 5.0);
  auto writer = MakeTxn(1, 1, {p1_}, 0b1, 1.0);  // older
  mgr_.RequestAccess(reader, 0, p1_, AccessMode::kRead);  // rts = 5
  auto c = mgr_.RequestAccess(writer, 0, p1_, AccessMode::kWrite);
  EXPECT_EQ(Value(c), AccessOutcome::kAborted);
}

TEST_F(BtoTest, ThomasWriteRuleSkipsObsoleteWrite) {
  auto newer = MakeTxn(2, 1, {p1_}, 0b1, 5.0);
  auto older = MakeTxn(1, 1, {p1_}, 0b1, 1.0);
  mgr_.RequestAccess(newer, 0, p1_, AccessMode::kWrite);
  mgr_.CommitCohort(newer, 0);  // wts = 5
  // Older write: rts is still 0 < 1, wts = 5 > 1 -> Thomas rule, granted.
  auto c = mgr_.RequestAccess(older, 0, p1_, AccessMode::kWrite);
  EXPECT_EQ(Value(c), AccessOutcome::kGranted);
  EXPECT_EQ(mgr_.thomas_skips(), 1u);
  ctx_.audits.clear();
  mgr_.CommitCohort(older, 0);
  ASSERT_EQ(ctx_.audits.size(), 1u);
  EXPECT_EQ(ctx_.audits[0].kind, FakeCcContext::AuditCall::kSkip);
}

TEST_F(BtoTest, ReaderBlocksBehindEarlierPendingWrite) {
  auto writer = MakeTxn(1, 1, {p1_}, 0b1, 1.0);
  auto reader = MakeTxn(2, 1, {p1_}, 0, 5.0);  // younger
  mgr_.RequestAccess(writer, 0, p1_, AccessMode::kWrite);  // pending
  auto c = mgr_.RequestAccess(reader, 0, p1_, AccessMode::kRead);
  EXPECT_FALSE(c->done());
  EXPECT_EQ(mgr_.blocked_readers(), 1u);
  // Writer commits: the read unblocks and sees the new version.
  ctx_.audits.clear();
  mgr_.CommitCohort(writer, 0);
  ASSERT_TRUE(c->done());
  EXPECT_EQ(c->TakeValue(), AccessOutcome::kGranted);
  EXPECT_EQ(mgr_.blocked_readers(), 0u);
  // Install then read, in order.
  ASSERT_EQ(ctx_.audits.size(), 2u);
  EXPECT_EQ(ctx_.audits[0].kind, FakeCcContext::AuditCall::kInstall);
  EXPECT_EQ(ctx_.audits[1].kind, FakeCcContext::AuditCall::kRead);
}

TEST_F(BtoTest, ReaderUnblocksWhenPendingWriteAborts) {
  auto writer = MakeTxn(1, 1, {p1_}, 0b1, 1.0);
  auto reader = MakeTxn(2, 1, {p1_}, 0, 5.0);
  mgr_.RequestAccess(writer, 0, p1_, AccessMode::kWrite);
  auto c = mgr_.RequestAccess(reader, 0, p1_, AccessMode::kRead);
  EXPECT_FALSE(c->done());
  mgr_.AbortCohort(writer, 0);
  ASSERT_TRUE(c->done());
  EXPECT_EQ(c->TakeValue(), AccessOutcome::kGranted);
}

TEST_F(BtoTest, ReaderDoesNotBlockOnLaterPendingWrite) {
  auto writer = MakeTxn(2, 1, {p1_}, 0b1, 5.0);
  auto reader = MakeTxn(1, 1, {p1_}, 0, 1.0);  // older than the pending write
  mgr_.RequestAccess(writer, 0, p1_, AccessMode::kWrite);
  auto c = mgr_.RequestAccess(reader, 0, p1_, AccessMode::kRead);
  EXPECT_EQ(Value(c), AccessOutcome::kGranted);
}

TEST_F(BtoTest, BlockedReaderRejectedWhenLaterWriteCommitsFirst) {
  auto w1 = MakeTxn(1, 1, {p1_}, 0b1, 1.0);
  auto w2 = MakeTxn(3, 1, {p1_}, 0b1, 9.0);
  auto reader = MakeTxn(2, 1, {p1_}, 0, 5.0);
  mgr_.RequestAccess(w1, 0, p1_, AccessMode::kWrite);    // pending ts 1
  mgr_.RequestAccess(w2, 0, p1_, AccessMode::kWrite);    // pending ts 9
  auto c = mgr_.RequestAccess(reader, 0, p1_, AccessMode::kRead);  // blocks on w1
  EXPECT_FALSE(c->done());
  mgr_.CommitCohort(w2, 0);  // wts jumps to 9 > reader's 5
  // Reader still blocked on w1's pending write, but now doomed; commit w1.
  mgr_.CommitCohort(w1, 0);
  ASSERT_TRUE(c->done());
  EXPECT_EQ(c->TakeValue(), AccessOutcome::kAborted);
}

TEST_F(BtoTest, PendingWriteInstallOrderFollowsTimestamps) {
  auto w1 = MakeTxn(1, 1, {p1_}, 0b1, 1.0);
  auto w2 = MakeTxn(2, 1, {p1_}, 0b1, 5.0);
  mgr_.RequestAccess(w1, 0, p1_, AccessMode::kWrite);
  mgr_.RequestAccess(w2, 0, p1_, AccessMode::kWrite);
  // Later write commits first: installs (wts=5).
  ctx_.audits.clear();
  mgr_.CommitCohort(w2, 0);
  ASSERT_EQ(ctx_.audits.size(), 1u);
  EXPECT_EQ(ctx_.audits[0].kind, FakeCcContext::AuditCall::kInstall);
  // Earlier write commits second: skipped (5 > 1).
  ctx_.audits.clear();
  mgr_.CommitCohort(w1, 0);
  ASSERT_EQ(ctx_.audits.size(), 1u);
  EXPECT_EQ(ctx_.audits[0].kind, FakeCcContext::AuditCall::kSkip);
}

TEST_F(BtoTest, WriteAfterOwnReadAllowed) {
  // rts equals the transaction's own timestamp: not a conflict (ts < rts is
  // strict).
  auto t = MakeTxn(1, 1, {p1_}, 0b1, 3.0);
  EXPECT_EQ(Value(mgr_.RequestAccess(t, 0, p1_, AccessMode::kRead)),
            AccessOutcome::kGranted);
  EXPECT_EQ(Value(mgr_.RequestAccess(t, 0, p1_, AccessMode::kWrite)),
            AccessOutcome::kGranted);
}

TEST_F(BtoTest, AbortRemovesPendingWritesWithoutInstall) {
  auto w = MakeTxn(1, 1, {p1_}, 0b1, 2.0);
  mgr_.RequestAccess(w, 0, p1_, AccessMode::kWrite);
  ctx_.audits.clear();
  mgr_.AbortCohort(w, 0);
  EXPECT_TRUE(ctx_.audits.empty());
  // A read at an older timestamp is fine now (wts never advanced).
  auto r = MakeTxn(2, 1, {p1_}, 0, 1.0);
  EXPECT_EQ(Value(mgr_.RequestAccess(r, 0, p1_, AccessMode::kRead)),
            AccessOutcome::kGranted);
}

TEST_F(BtoTest, AbortWakesOwnBlockedReads) {
  auto w = MakeTxn(1, 1, {p1_}, 0b1, 1.0);
  auto r = MakeTxn(2, 1, {p1_}, 0, 5.0);
  mgr_.RequestAccess(w, 0, p1_, AccessMode::kWrite);
  auto c = mgr_.RequestAccess(r, 0, p1_, AccessMode::kRead);
  EXPECT_FALSE(c->done());
  mgr_.AbortCohort(r, 0);  // the blocked reader's own abort
  ASSERT_TRUE(c->done());
  EXPECT_EQ(c->TakeValue(), AccessOutcome::kAborted);
  EXPECT_EQ(mgr_.blocked_readers(), 0u);
}

TEST_F(BtoTest, AbortBeforeLaterAccessesLeavesOtherTransactionsUntouched) {
  PageRef p3{0, 3};
  auto writer = MakeTxn(1, 1, {p2_, p3}, 0b11, 1.0);
  auto reader = MakeTxn(3, 1, {p3}, 0, 5.0);
  // The victim's spec writes p2 and reads p3, but it is aborted after
  // reaching only p1.
  auto victim = MakeTxn(2, 1, {p1_, p2_, p3}, 0b010, 3.0);
  mgr_.RequestAccess(writer, 0, p2_, AccessMode::kWrite);  // pending
  mgr_.RequestAccess(writer, 0, p3, AccessMode::kWrite);   // pending
  auto blocked = mgr_.RequestAccess(reader, 0, p3, AccessMode::kRead);
  ASSERT_FALSE(blocked->done());
  EXPECT_EQ(Value(mgr_.RequestAccess(victim, 0, p1_, AccessMode::kRead)),
            AccessOutcome::kGranted);
  mgr_.AbortCohort(victim, 0);
  // The other reader still waits, and the writer's commit installs both of
  // its pending writes, then grants that read.
  EXPECT_FALSE(blocked->done());
  EXPECT_EQ(mgr_.blocked_readers(), 1u);
  ctx_.audits.clear();
  mgr_.CommitCohort(writer, 0);
  ASSERT_EQ(ctx_.audits.size(), 3u);
  EXPECT_EQ(ctx_.audits[0].kind, FakeCcContext::AuditCall::kInstall);
  EXPECT_EQ(ctx_.audits[0].page, p2_);
  EXPECT_EQ(ctx_.audits[1].kind, FakeCcContext::AuditCall::kInstall);
  EXPECT_EQ(ctx_.audits[1].page, p3);
  EXPECT_EQ(ctx_.audits[2].kind, FakeCcContext::AuditCall::kRead);
  EXPECT_EQ(ctx_.audits[2].txn, 3u);
  ASSERT_TRUE(blocked->done());
  EXPECT_EQ(blocked->TakeValue(), AccessOutcome::kGranted);
}

TEST_F(BtoTest, CommitInstallsThePendingWriteAndSkipsTheThomasWrite) {
  auto newer = MakeTxn(2, 1, {p2_}, 0b1, 5.0);
  mgr_.RequestAccess(newer, 0, p2_, AccessMode::kWrite);
  mgr_.CommitCohort(newer, 0);  // wts(p2) = 5
  auto t = MakeTxn(1, 1, {p1_, p2_}, 0b11, 2.0);
  EXPECT_EQ(Value(mgr_.RequestAccess(t, 0, p1_, AccessMode::kWrite)),
            AccessOutcome::kGranted);  // pending
  EXPECT_EQ(Value(mgr_.RequestAccess(t, 0, p2_, AccessMode::kWrite)),
            AccessOutcome::kGranted);  // Thomas write rule
  EXPECT_EQ(mgr_.thomas_skips(), 1u);
  ctx_.audits.clear();
  mgr_.CommitCohort(t, 0);
  ASSERT_EQ(ctx_.audits.size(), 2u);
  EXPECT_EQ(ctx_.audits[0].kind, FakeCcContext::AuditCall::kInstall);
  EXPECT_EQ(ctx_.audits[0].page, p1_);
  EXPECT_EQ(ctx_.audits[1].kind, FakeCcContext::AuditCall::kSkip);
  EXPECT_EQ(ctx_.audits[1].page, p2_);
}

TEST_F(BtoTest, RestartWithFreshTimestampSucceeds) {
  auto writer = MakeTxn(2, 1, {p1_}, 0b1, 5.0);
  mgr_.RequestAccess(writer, 0, p1_, AccessMode::kWrite);
  mgr_.CommitCohort(writer, 0);  // wts = 5
  auto t = MakeTxn(1, 1, {p1_}, 0, 1.0);
  EXPECT_EQ(Value(mgr_.RequestAccess(t, 0, p1_, AccessMode::kRead)),
            AccessOutcome::kAborted);
  // Restart: new attempt timestamp after the write.
  t->BeginAttempt(9.0);
  EXPECT_EQ(Value(mgr_.RequestAccess(t, 0, p1_, AccessMode::kRead)),
            AccessOutcome::kGranted);
}

TEST_F(BtoTest, BlockingTimeTallyRecordsGrantedWaits) {
  auto w = MakeTxn(1, 1, {p1_}, 0b1, 1.0);
  auto r = MakeTxn(2, 1, {p1_}, 0, 5.0);
  mgr_.RequestAccess(w, 0, p1_, AccessMode::kWrite);
  auto c = mgr_.RequestAccess(r, 0, p1_, AccessMode::kRead);
  ctx_.simulation().At(3.0, [&] { mgr_.CommitCohort(w, 0); });
  ctx_.Pump();
  ASSERT_TRUE(c->done());
  ASSERT_NE(mgr_.blocking_times(), nullptr);
  EXPECT_EQ(mgr_.blocking_times()->count(), 1u);
  EXPECT_DOUBLE_EQ(mgr_.blocking_times()->mean(), 3.0);
}

}  // namespace
}  // namespace ccsim::cc
