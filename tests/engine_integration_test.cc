#include <gtest/gtest.h>

#include "ccsim/engine/run.h"
#include "ccsim/engine/system.h"
#include "test_util.h"

namespace ccsim::engine {
namespace {

using test::SmallConfig;

TEST(EngineIntegration, DeterministicForFixedSeed) {
  auto cfg = SmallConfig(config::CcAlgorithm::kTwoPhaseLocking, 2.0);
  RunResult a = RunSimulation(cfg);
  RunResult b = RunSimulation(cfg);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.aborts, b.aborts);
  EXPECT_EQ(a.events, b.events);
  EXPECT_DOUBLE_EQ(a.mean_response_time, b.mean_response_time);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
}

TEST(EngineIntegration, DifferentSeedsGiveDifferentButSimilarRuns) {
  auto cfg = SmallConfig(config::CcAlgorithm::kTwoPhaseLocking, 2.0);
  RunResult a = RunSimulation(cfg);
  cfg.run.seed = 1234;
  RunResult b = RunSimulation(cfg);
  EXPECT_NE(a.events, b.events);
  ASSERT_GT(a.throughput, 0);
  EXPECT_NEAR(b.throughput / a.throughput, 1.0, 0.25);
}

TEST(EngineIntegration, ConservationWithoutWarmup) {
  auto cfg = SmallConfig(config::CcAlgorithm::kNoDc, 2.0);
  cfg.run.warmup_sec = 0;
  RunResult r = RunSimulation(cfg);
  // Every submitted transaction either committed or is still in flight.
  EXPECT_EQ(r.transactions_submitted, r.commits + r.live_at_end);
}

TEST(EngineIntegration, ThroughputEqualsCommitsOverWindow) {
  auto cfg = SmallConfig(config::CcAlgorithm::kNoDc, 2.0);
  RunResult r = RunSimulation(cfg);
  EXPECT_NEAR(r.throughput,
              static_cast<double>(r.commits) / cfg.run.measure_sec, 1e-9);
}

TEST(EngineIntegration, NoDcNeverAborts) {
  RunResult r = RunSimulation(SmallConfig(config::CcAlgorithm::kNoDc, 0.5));
  EXPECT_EQ(r.aborts, 0u);
  EXPECT_EQ(r.abort_ratio, 0.0);
}

TEST(EngineIntegration, UtilizationsAreProbabilities) {
  for (auto alg : config::kAllAlgorithms) {
    RunResult r = RunSimulation(SmallConfig(alg, 1.0));
    EXPECT_GE(r.proc_cpu_util, 0.0);
    EXPECT_LE(r.proc_cpu_util, 1.0);
    EXPECT_GE(r.disk_util, 0.0);
    EXPECT_LE(r.disk_util, 1.0);
    EXPECT_GE(r.host_cpu_util, 0.0);
    EXPECT_LE(r.host_cpu_util, 1.0);
  }
}

TEST(EngineIntegration, LightLoadResponseTimeMatchesServiceDemand) {
  // One busy terminal at a time (huge think time): response time is close
  // to the no-queueing service demand of one transaction.
  auto cfg = SmallConfig(config::CcAlgorithm::kNoDc, 60.0);
  cfg.workload.num_terminals = 4;  // one per relation group
  cfg.run.measure_sec = 600;
  RunResult r = RunSimulation(cfg);
  ASSERT_GT(r.commits, 10u);
  // Per cohort: ~4 accesses (3 reads at ~28 ms incl. CPU + 1 write at 8 ms)
  // over 2 disks, run in parallel across 4 nodes; plus protocol overhead.
  EXPECT_GT(r.mean_response_time, 0.05);
  EXPECT_LT(r.mean_response_time, 0.6);
}

TEST(EngineIntegration, SaturationDrivesDisksNearFull) {
  auto cfg = SmallConfig(config::CcAlgorithm::kNoDc, 0.0);
  RunResult r = RunSimulation(cfg);
  EXPECT_GT(r.disk_util, 0.8);
}

TEST(EngineIntegration, MoreLoadMoreThroughputUntilSaturation) {
  auto busy = RunSimulation(SmallConfig(config::CcAlgorithm::kNoDc, 1.0));
  auto idle = RunSimulation(SmallConfig(config::CcAlgorithm::kNoDc, 30.0));
  EXPECT_GT(busy.throughput, idle.throughput);
}

TEST(EngineIntegration, BlockingTimeReportedOnlyForBlockingAlgorithms) {
  auto locking =
      RunSimulation(SmallConfig(config::CcAlgorithm::kTwoPhaseLocking, 0.5));
  auto optimistic =
      RunSimulation(SmallConfig(config::CcAlgorithm::kOptimistic, 0.5));
  EXPECT_GT(locking.blocked_waits, 0u);
  EXPECT_GT(locking.mean_blocking_time, 0.0);
  EXPECT_EQ(optimistic.blocked_waits, 0u);
}

TEST(EngineIntegration, ContendedRunsAbortUnderRealAlgorithms) {
  for (auto alg :
       {config::CcAlgorithm::kWoundWait, config::CcAlgorithm::kOptimistic,
        config::CcAlgorithm::kBasicTimestamp}) {
    RunResult r = RunSimulation(SmallConfig(alg, 0.0));
    EXPECT_GT(r.aborts, 0u) << config::ToString(alg);
  }
}

TEST(EngineIntegration, MessagesPerCommitAtLeastSixPerCohortSet) {
  auto cfg = SmallConfig(config::CcAlgorithm::kNoDc, 5.0, 4);
  RunResult r = RunSimulation(cfg);
  // 4 cohorts x 6 messages minimum.
  EXPECT_GE(r.messages_per_commit, 24.0);
  EXPECT_LT(r.messages_per_commit, 40.0);
}

TEST(EngineIntegration, SingleNodeMachineWorks) {
  RunResult r =
      RunSimulation(SmallConfig(config::CcAlgorithm::kTwoPhaseLocking, 2.0, 1));
  EXPECT_GT(r.commits, 0u);
  EXPECT_TRUE(r.serializable) << r.audit_note;
}

TEST(EngineIntegration, AuditDisabledSkipsChecking) {
  auto cfg = SmallConfig(config::CcAlgorithm::kTwoPhaseLocking, 2.0);
  cfg.run.enable_audit = false;
  RunResult r = RunSimulation(cfg);
  EXPECT_FALSE(r.audited);
}

TEST(EngineIntegration, SnoopRunsOnlyUnder2pl) {
  engine::System with_snoop(
      SmallConfig(config::CcAlgorithm::kTwoPhaseLocking, 1.0));
  EXPECT_NE(with_snoop.snoop(), nullptr);
  engine::System without(SmallConfig(config::CcAlgorithm::kWoundWait, 1.0));
  EXPECT_EQ(without.snoop(), nullptr);
}

TEST(EngineIntegration, SnoopDetectionRoundsHappen) {
  auto cfg = SmallConfig(config::CcAlgorithm::kTwoPhaseLocking, 1.0);
  engine::System sys(cfg);
  sys.Start();
  sys.sim().RunUntil(30.0);
  // Detection interval is 1 s: roughly 30 rounds.
  ASSERT_NE(sys.snoop(), nullptr);
  EXPECT_GE(sys.snoop()->detection_rounds(), 25u);
  EXPECT_GT(sys.network().messages_sent(net::MsgTag::kSnoopQuery), 0u);
}

TEST(EngineIntegration, RestartDelayTracksMeanResponseTime) {
  auto cfg = SmallConfig(config::CcAlgorithm::kNoDc, 5.0);
  engine::System sys(cfg);
  EXPECT_DOUBLE_EQ(sys.RestartDelay(), cfg.run.initial_rt_estimate_sec);
  sys.Start();
  sys.sim().RunUntil(50.0);
  EXPECT_GT(sys.RestartDelay(), 0.0);
  EXPECT_LT(sys.RestartDelay(), 5.0);  // mean RT, not think time
}

TEST(EngineIntegration, HostCpuBusierWithMoreMessageTraffic) {
  auto cheap = SmallConfig(config::CcAlgorithm::kNoDc, 1.0);
  cheap.costs.inst_per_msg = 0;
  auto costly = SmallConfig(config::CcAlgorithm::kNoDc, 1.0);
  costly.costs.inst_per_msg = 4000;
  RunResult a = RunSimulation(cheap);
  RunResult b = RunSimulation(costly);
  EXPECT_GT(b.host_cpu_util, a.host_cpu_util);
}

TEST(EngineIntegration, FakeRestartsRunAndStaySerializable) {
  auto cfg = SmallConfig(config::CcAlgorithm::kWoundWait, 0.0);
  cfg.workload.fake_restarts = true;
  RunResult r = RunSimulation(cfg);
  EXPECT_GT(r.commits, 0u);
  EXPECT_GT(r.aborts, 0u);  // contended enough to restart
  EXPECT_TRUE(r.serializable) << r.audit_note;
}

TEST(EngineIntegration, FakeRestartsChangeTheTrajectory) {
  auto cfg = SmallConfig(config::CcAlgorithm::kWoundWait, 0.0);
  RunResult normal = RunSimulation(cfg);
  cfg.workload.fake_restarts = true;
  RunResult fake = RunSimulation(cfg);
  // Different restart semantics -> different event streams.
  EXPECT_NE(normal.events, fake.events);
}

TEST(EngineIntegration, ResponsePercentilesAreOrdered) {
  RunResult r = RunSimulation(SmallConfig(config::CcAlgorithm::kNoDc, 2.0));
  EXPECT_GT(r.rt_p50, 0.0);
  EXPECT_LE(r.rt_p50, r.rt_p90);
  EXPECT_LE(r.rt_p90, r.rt_p99);
  EXPECT_LE(r.rt_p99, r.max_response_time + 0.1);  // histogram bin slack
  EXPECT_NEAR(r.rt_p50, r.mean_response_time, r.mean_response_time);
}

TEST(EngineIntegrationDeathTest, InvalidConfigIsFatal) {
  auto cfg = SmallConfig(config::CcAlgorithm::kNoDc, 1.0);
  cfg.placement.degree = 3;
  EXPECT_DEATH(RunSimulation(cfg), "placement degree must divide");
}

}  // namespace
}  // namespace ccsim::engine
