#include "ccsim/cc/two_phase_locking_deferred.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ccsim/engine/run.h"
#include "test_util.h"

namespace ccsim::cc {
namespace {

using test::FakeCcContext;
using test::MakeTxn;

class DeferredTest : public ::testing::Test {
 protected:
  DeferredTest() : mgr_(&ctx_, /*node=*/1) {}

  FakeCcContext ctx_;
  TwoPhaseLockingDeferredManager mgr_;
  PageRef p1_{0, 1};
  PageRef p2_{0, 2};
};

TEST_F(DeferredTest, WriteAccessTakesOnlySharedLockDuringExecution) {
  auto t1 = MakeTxn(1, 1, {p1_}, 0b1, 1.0);
  auto t2 = MakeTxn(2, 1, {p1_}, 0b1, 2.0);
  mgr_.BeginCohort(t1, 0);
  mgr_.BeginCohort(t2, 0);
  auto c1 = mgr_.RequestAccess(t1, 0, p1_, AccessMode::kWrite);
  auto c2 = mgr_.RequestAccess(t2, 0, p1_, AccessMode::kWrite);
  // Under stock 2PL the second writer would block; under 2PL-DW both
  // proceed with shared locks.
  EXPECT_TRUE(c1->done());
  EXPECT_TRUE(c2->done());
}

TEST_F(DeferredTest, PrepareUpgradesAndVotesYesWhenUncontended) {
  auto t = MakeTxn(1, 1, {p1_, p2_}, 0b10, 1.0);
  mgr_.BeginCohort(t, 0);
  mgr_.RequestAccess(t, 0, p1_, AccessMode::kRead);
  mgr_.RequestAccess(t, 0, p2_, AccessMode::kWrite);
  auto vote = mgr_.Prepare(t, 0);
  ASSERT_TRUE(vote->done());
  EXPECT_EQ(vote->TakeValue(), Vote::kYes);
  // After prepare the write lock is exclusive: a reader now blocks.
  auto t2 = MakeTxn(2, 1, {p2_}, 0, 2.0);
  mgr_.BeginCohort(t2, 0);
  auto c = mgr_.RequestAccess(t2, 0, p2_, AccessMode::kRead);
  EXPECT_FALSE(c->done());
  // ... until commit.
  mgr_.CommitCohort(t, 0);
  EXPECT_TRUE(c->done());
}

TEST_F(DeferredTest, PrepareBlocksBehindConcurrentReader) {
  auto writer = MakeTxn(1, 1, {p1_}, 0b1, 1.0);
  auto reader = MakeTxn(2, 1, {p1_}, 0, 2.0);
  mgr_.BeginCohort(writer, 0);
  mgr_.BeginCohort(reader, 0);
  mgr_.RequestAccess(writer, 0, p1_, AccessMode::kWrite);  // shared for now
  mgr_.RequestAccess(reader, 0, p1_, AccessMode::kRead);
  auto vote = mgr_.Prepare(writer, 0);
  EXPECT_FALSE(vote->done());  // upgrade waits for the reader
  EXPECT_EQ(mgr_.upgrade_waits(), 1u);
  mgr_.CommitCohort(reader, 0);  // reader releases
  ctx_.Pump();                   // the prepare process resumes
  ASSERT_TRUE(vote->done());
  EXPECT_EQ(vote->TakeValue(), Vote::kYes);
}

TEST_F(DeferredTest, ConcurrentUpgradesDeadlockAndVictimChosen) {
  auto t1 = MakeTxn(1, 1, {p1_}, 0b1, 1.0);
  auto t2 = MakeTxn(2, 1, {p1_}, 0b1, 2.0);
  mgr_.BeginCohort(t1, 0);
  mgr_.BeginCohort(t2, 0);
  mgr_.RequestAccess(t1, 0, p1_, AccessMode::kWrite);
  mgr_.RequestAccess(t2, 0, p1_, AccessMode::kWrite);
  auto v1 = mgr_.Prepare(t1, 0);
  EXPECT_FALSE(v1->done());  // waits for t2's shared lock
  auto v2 = mgr_.Prepare(t2, 0);
  EXPECT_FALSE(v2->done());  // upgrade-upgrade deadlock
  ASSERT_EQ(ctx_.abort_requests.size(), 1u);
  EXPECT_EQ(ctx_.abort_requests[0].txn, 2u);  // youngest dies
  // The abort reaches this node: t2's pending upgrade cancels, t1 proceeds.
  mgr_.AbortCohort(t2, 0);
  ctx_.Pump();
  ASSERT_TRUE(v1->done());
  EXPECT_EQ(v1->TakeValue(), Vote::kYes);
  ASSERT_TRUE(v2->done());
  EXPECT_EQ(v2->TakeValue(), Vote::kNo);
}

// A write access locks shared until prepare, so a delayed shared grant is
// not always a read: only the reader's grant may audit a version read.
TEST_F(DeferredTest, DelayedGrantAuditsReadsButNotWrites) {
  auto writer = MakeTxn(1, 1, {p1_}, 0b1, 1.0);
  auto blocked_writer = MakeTxn(2, 1, {p1_}, 0b1, 2.0);
  auto reader = MakeTxn(3, 1, {p1_}, 0, 3.0);
  for (const auto& t : {writer, blocked_writer, reader}) {
    mgr_.BeginCohort(t, 0);
  }
  mgr_.RequestAccess(writer, 0, p1_, AccessMode::kWrite);
  auto vote = mgr_.Prepare(writer, 0);  // upgrades to exclusive at once
  ASSERT_TRUE(vote->done());
  auto w = mgr_.RequestAccess(blocked_writer, 0, p1_, AccessMode::kWrite);
  auto r = mgr_.RequestAccess(reader, 0, p1_, AccessMode::kRead);
  EXPECT_FALSE(w->done());
  EXPECT_FALSE(r->done());
  ctx_.audits.clear();
  mgr_.CommitCohort(writer, 0);  // grants both shared requests
  EXPECT_TRUE(w->done());
  EXPECT_TRUE(r->done());
  std::vector<TxnId> read_audits;
  for (const auto& a : ctx_.audits) {
    if (a.kind == FakeCcContext::AuditCall::kRead) {
      read_audits.push_back(a.txn);
    }
  }
  EXPECT_EQ(read_audits, std::vector<TxnId>{3});
}

TEST_F(DeferredTest, PureReaderPreparesImmediately) {
  auto t = MakeTxn(1, 1, {p1_}, 0, 1.0);
  mgr_.BeginCohort(t, 0);
  mgr_.RequestAccess(t, 0, p1_, AccessMode::kRead);
  auto vote = mgr_.Prepare(t, 0);
  ASSERT_TRUE(vote->done());
  EXPECT_EQ(vote->TakeValue(), Vote::kYes);
}

TEST_F(DeferredTest, EndToEndRunIsSerializable) {
  auto cfg = test::SmallConfig(config::CcAlgorithm::kTwoPhaseLockingDeferred,
                               0.5, 4);
  auto r = engine::RunSimulation(cfg);
  EXPECT_GT(r.commits, 100u);
  EXPECT_TRUE(r.serializable) << r.audit_note;
}

TEST_F(DeferredTest, EndToEndCommitsUnderContention) {
  auto cfg =
      test::SmallConfig(config::CcAlgorithm::kTwoPhaseLockingDeferred, 0.0, 4);
  auto r = engine::RunSimulation(cfg);
  EXPECT_GT(r.commits, 100u);
  EXPECT_GT(r.aborts, 0u);  // upgrade deadlocks do happen
  EXPECT_TRUE(r.serializable) << r.audit_note;
}

// Figures 14 and 15 run with free messages (InstPerMsg 0). An abort is then
// delivered synchronously, and local detection can pick the preparing
// cohort itself, so the abort lands inside Prepare's upgrade loop.
TEST_F(DeferredTest, FreeMessagesAbortInsidePrepareStopsTheUpgrades) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto cfg =
        test::SmallConfig(config::CcAlgorithm::kTwoPhaseLockingDeferred, 0.0);
    cfg.costs.inst_per_msg = 0;
    cfg.run.seed = seed;
    auto r = engine::RunSimulation(cfg);
    EXPECT_GT(r.commits, 100u) << "seed " << seed;
    EXPECT_TRUE(r.serializable) << "seed " << seed << ": " << r.audit_note;
  }
}

}  // namespace
}  // namespace ccsim::cc
