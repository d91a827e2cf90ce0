#include "ccsim/resource/cpu.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "ccsim/sim/process.h"
#include "ccsim/sim/simulation.h"

namespace ccsim::resource {
namespace {

using sim::Process;
using sim::Simulation;

// Records the simulated time a job finishes.
Process Track(Simulation& sim, CpuJob job, double* when) {
  co_await job;
  *when = sim.Now();
}

// Runs a job nobody waits on.
Process Load(CpuJob job) { co_await job; }

// Records the order in which jobs finish.
Process TrackOrder(CpuJob job, std::vector<int>* order, int tag) {
  co_await job;
  order->push_back(tag);
}

class CpuTest : public ::testing::Test {
 protected:
  Simulation sim_;
  Cpu cpu_{&sim_, 1.0};  // 1 MIPS: 1000 instructions == 1 ms
};

TEST_F(CpuTest, SingleUserJobTakesItsDemand) {
  double done = -1;
  Track(sim_, cpu_.ExecuteSeconds(2.0, CpuJobClass::kUser), &done);
  sim_.Run();
  EXPECT_NEAR(done, 2.0, 1e-9);
}

TEST_F(CpuTest, InstructionsConvertViaMips) {
  double done = -1;
  Track(sim_, cpu_.Execute(8000.0, CpuJobClass::kUser), &done);
  sim_.Run();
  EXPECT_NEAR(done, 0.008, 1e-12);
}

TEST_F(CpuTest, TwoEqualJobsShareTheProcessor) {
  double a = -1, b = -1;
  Track(sim_, cpu_.ExecuteSeconds(1.0, CpuJobClass::kUser), &a);
  Track(sim_, cpu_.ExecuteSeconds(1.0, CpuJobClass::kUser), &b);
  sim_.Run();
  // Processor sharing: both finish at 2.0 (each progresses at rate 1/2).
  EXPECT_NEAR(a, 2.0, 1e-9);
  EXPECT_NEAR(b, 2.0, 1e-9);
}

TEST_F(CpuTest, StaggeredArrivalProcessorSharing) {
  double a = -1, b = -1;
  Track(sim_, cpu_.ExecuteSeconds(3.0, CpuJobClass::kUser), &a);
  sim_.At(1.0, [&] {
    Track(sim_, cpu_.ExecuteSeconds(1.0, CpuJobClass::kUser), &b);
  });
  sim_.Run();
  // A alone in [0,1) does 1 unit; then both share. B needs 1 at rate 1/2:
  // finishes at 3. A then has 1 left, alone: finishes at 4.
  EXPECT_NEAR(b, 3.0, 1e-9);
  EXPECT_NEAR(a, 4.0, 1e-9);
}

TEST_F(CpuTest, ZeroDemandCompletesImmediately) {
  // Done before the simulation runs: the awaiting process never suspends.
  double c = -1, m = -1;
  Track(sim_, cpu_.ExecuteSeconds(0.0, CpuJobClass::kUser), &c);
  EXPECT_EQ(c, 0.0);
  Track(sim_, cpu_.Execute(0.0, CpuJobClass::kMessage), &m);
  EXPECT_EQ(m, 0.0);
}

TEST_F(CpuTest, MessagePreemptsProcessorSharingWork) {
  double user = -1, msg = -1;
  Track(sim_, cpu_.ExecuteSeconds(2.0, CpuJobClass::kUser), &user);
  sim_.At(0.5, [&] {
    Track(sim_, cpu_.ExecuteSeconds(1.0, CpuJobClass::kMessage), &msg);
  });
  sim_.Run();
  // User work stalls during [0.5, 1.5] while the message runs.
  EXPECT_NEAR(msg, 1.5, 1e-9);
  EXPECT_NEAR(user, 3.0, 1e-9);
}

TEST_F(CpuTest, MessagesServeFifoOneAtATime) {
  double m1 = -1, m2 = -1, m3 = -1;
  Track(sim_, cpu_.ExecuteSeconds(1.0, CpuJobClass::kMessage), &m1);
  Track(sim_, cpu_.ExecuteSeconds(0.5, CpuJobClass::kMessage), &m2);
  Track(sim_, cpu_.ExecuteSeconds(0.25, CpuJobClass::kMessage), &m3);
  sim_.Run();
  EXPECT_NEAR(m1, 1.0, 1e-9);
  EXPECT_NEAR(m2, 1.5, 1e-9);
  EXPECT_NEAR(m3, 1.75, 1e-9);
}

TEST_F(CpuTest, UserJobSubmittedDuringMessageWaits) {
  double msg = -1;
  Track(sim_, cpu_.ExecuteSeconds(1.0, CpuJobClass::kMessage), &msg);
  double u = -1;
  sim_.At(0.2, [&] {
    Track(sim_, cpu_.ExecuteSeconds(0.5, CpuJobClass::kUser), &u);
  });
  sim_.Run();
  // The user job cannot start before the message finishes at t=1.
  EXPECT_NEAR(u, 1.5, 1e-9);
}

TEST_F(CpuTest, BackToBackMessagesKeepPsStalled) {
  double user = -1;
  Track(sim_, cpu_.ExecuteSeconds(1.0, CpuJobClass::kUser), &user);
  sim_.At(0.25, [&] {
    Load(cpu_.ExecuteSeconds(0.5, CpuJobClass::kMessage));
    Load(cpu_.ExecuteSeconds(0.5, CpuJobClass::kMessage));
  });
  sim_.Run();
  // PS progress: 0.25 before the messages, stalled during [0.25, 1.25],
  // remaining 0.75 afterwards.
  EXPECT_NEAR(user, 2.0, 1e-9);
}

TEST_F(CpuTest, ManyEqualJobsFinishTogether) {
  const int n = 10;
  std::vector<double> done(n, -1);
  for (int i = 0; i < n; ++i) {
    Track(sim_, cpu_.ExecuteSeconds(1.0, CpuJobClass::kUser), &done[i]);
  }
  sim_.Run();
  for (double d : done) EXPECT_NEAR(d, 10.0, 1e-6);
}

TEST_F(CpuTest, TiedPsJobsFinishInArrivalOrder) {
  // Twelve equal jobs share one virtual end time; a thirteenth arrives at
  // t=6, when the virtual clock stands at 0.5, and ties with them too. All
  // finish at 12.5 and must wake in arrival order, as the multimap the PS
  // heap replaced ordered equal keys.
  std::vector<int> order;
  for (int i = 0; i < 12; ++i) {
    TrackOrder(cpu_.ExecuteSeconds(1.0, CpuJobClass::kUser), &order, i);
  }
  sim_.At(6.0, [&] {
    TrackOrder(cpu_.ExecuteSeconds(0.5, CpuJobClass::kUser), &order, 12);
  });
  sim_.Run();
  EXPECT_EQ(order,
            (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}));
  EXPECT_NEAR(sim_.Now(), 12.5, 1e-9);
}

TEST_F(CpuTest, UtilizationTracksBusyTime) {
  Load(cpu_.ExecuteSeconds(2.0, CpuJobClass::kUser));
  sim_.At(8.0, [] {});  // extend the run
  sim_.Run();
  EXPECT_NEAR(cpu_.Utilization(), 2.0 / 8.0, 1e-9);
}

TEST_F(CpuTest, ResetStatsRestartsUtilizationWindow) {
  Load(cpu_.ExecuteSeconds(1.0, CpuJobClass::kUser));
  sim_.At(1.0, [&] { cpu_.ResetStats(); });
  sim_.At(3.0, [] {});
  sim_.Run();
  EXPECT_NEAR(cpu_.Utilization(), 0.0, 1e-9);
}

TEST_F(CpuTest, JobsCompletedCounts) {
  Load(cpu_.ExecuteSeconds(0.5, CpuJobClass::kUser));
  Load(cpu_.ExecuteSeconds(0.5, CpuJobClass::kMessage));
  Load(cpu_.ExecuteSeconds(0.0, CpuJobClass::kUser));
  sim_.Run();
  EXPECT_EQ(cpu_.jobs_completed(), 3u);
}

TEST(CpuConfig, HigherMipsRunsProportionallyFaster) {
  Simulation sim;
  Cpu fast(&sim, 10.0);
  double done = -1;
  Track(sim, fast.Execute(8000.0, CpuJobClass::kUser), &done);
  sim.Run();
  EXPECT_NEAR(done, 0.0008, 1e-12);
}

Process AwaitInPlace(CpuJob* job) { co_await *job; }

TEST(CpuJobDeathTest, MovingAQueuedJobIsFatal) {
  Simulation sim;
  Cpu cpu(&sim, 1.0);
  CpuJob job = cpu.ExecuteSeconds(1.0, CpuJobClass::kUser);
  AwaitInPlace(&job);  // queued: the CPU now points at `job`
  EXPECT_DEATH(
      {
        CpuJob moved(std::move(job));
        (void)moved;
      },
      "moved a queued CPU job");
}

TEST(CpuConfigDeathTest, NonPositiveMipsIsFatal) {
  Simulation sim;
  EXPECT_DEATH(Cpu(&sim, 0.0), "mips");
}

}  // namespace
}  // namespace ccsim::resource
