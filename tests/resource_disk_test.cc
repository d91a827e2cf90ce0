#include "ccsim/resource/disk.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ccsim/resource/resource_manager.h"
#include "ccsim/sim/process.h"
#include "ccsim/sim/random.h"
#include "ccsim/sim/simulation.h"

namespace ccsim::resource {
namespace {

using sim::Process;
using sim::RandomStream;
using sim::Simulation;

Process Track(Simulation& sim, DiskJob job, double* when) {
  co_await job;
  *when = sim.Now();
}

Process TrackOrder(Simulation& sim, DiskJob job, std::vector<int>* order,
                   int tag) {
  (void)sim;
  co_await job;
  order->push_back(tag);
}

// Runs an access nobody waits on.
Process Load(DiskJob job) { co_await job; }

class DiskTest : public ::testing::Test {
 protected:
  Simulation sim_;
  Disk disk_{&sim_, 0.010, 0.030, RandomStream(1, 99)};
};

TEST_F(DiskTest, SingleAccessWithinServiceRange) {
  double done = -1;
  Track(sim_, disk_.Access(DiskOp::kRead), &done);
  sim_.Run();
  EXPECT_GE(done, 0.010);
  EXPECT_LE(done, 0.030);
}

TEST_F(DiskTest, ReadsServeFifo) {
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    TrackOrder(sim_, disk_.Access(DiskOp::kRead), &order, i);
  }
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(DiskTest, WritesJumpAheadOfQueuedReads) {
  std::vector<int> order;
  // Read 0 enters service immediately; reads 1-2 queue; the write must be
  // served right after read 0, before reads 1-2 (non-preemptive priority).
  TrackOrder(sim_, disk_.Access(DiskOp::kRead), &order, 0);
  TrackOrder(sim_, disk_.Access(DiskOp::kRead), &order, 1);
  TrackOrder(sim_, disk_.Access(DiskOp::kRead), &order, 2);
  TrackOrder(sim_, disk_.Access(DiskOp::kWrite), &order, 100);
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 100, 1, 2}));
}

TEST_F(DiskTest, QueueLengthCountsInServiceAndWaiting) {
  Load(disk_.Access(DiskOp::kRead));
  Load(disk_.Access(DiskOp::kRead));
  Load(disk_.Access(DiskOp::kWrite));
  EXPECT_EQ(disk_.queue_length(), 3u);
  sim_.Run();
  EXPECT_EQ(disk_.queue_length(), 0u);
}

TEST_F(DiskTest, SaturatedDiskHasFullUtilization) {
  for (int i = 0; i < 50; ++i) Load(disk_.Access(DiskOp::kRead));
  sim_.Run();
  EXPECT_NEAR(disk_.Utilization(), 1.0, 1e-9);
  EXPECT_EQ(disk_.accesses_completed(), 50u);
}

TEST_F(DiskTest, WaitTimesRecordQueueingDelay) {
  Load(disk_.Access(DiskOp::kRead));
  Load(disk_.Access(DiskOp::kRead));
  sim_.Run();
  ASSERT_EQ(disk_.wait_times().count(), 2u);
  EXPECT_DOUBLE_EQ(disk_.wait_times().min(), 0.0);   // first starts at once
  EXPECT_GE(disk_.wait_times().max(), 0.010);        // second waited >= min
}

TEST_F(DiskTest, MeanServiceTimeNearMidpoint) {
  const int n = 2000;
  for (int i = 0; i < n; ++i) Load(disk_.Access(DiskOp::kRead));
  sim_.Run();
  // Busy the whole time; total time ~ n * 20 ms.
  EXPECT_NEAR(sim_.Now() / n, 0.020, 0.001);
}

TEST_F(DiskTest, ResetStatsClearsCountersAndWindow) {
  Load(disk_.Access(DiskOp::kRead));
  sim_.Run();
  disk_.ResetStats();
  EXPECT_EQ(disk_.accesses_completed(), 0u);
  EXPECT_EQ(disk_.wait_times().count(), 0u);
}

TEST(ResourceManager, SpreadsAccessesAcrossDisks) {
  Simulation sim;
  ResourceManager rm(&sim, 1.0, 4, 0.010, 0.030, /*seed=*/7,
                     /*stream_base=*/0);
  for (int i = 0; i < 400; ++i) Load(rm.DiskAccess(DiskOp::kRead));
  sim.Run();
  for (int d = 0; d < 4; ++d) {
    EXPECT_GT(rm.disk(d).accesses_completed(), 50u);
  }
}

TEST(ResourceManager, MeanDiskUtilizationAveragesDisks) {
  Simulation sim;
  ResourceManager rm(&sim, 1.0, 2, 0.010, 0.010, 7, 0);
  Load(rm.disk(0).Access(DiskOp::kRead));  // only disk 0 busy
  sim.At(0.020, [] {});
  sim.Run();
  EXPECT_NEAR(rm.MeanDiskUtilization(), 0.25, 1e-9);
}

TEST(ResourceManagerDeathTest, DiskAccessWithNoDisksIsFatal) {
  Simulation sim;
  ResourceManager rm(&sim, 1.0, 0, 0.010, 0.030, 7, 0);
  EXPECT_DEATH(Load(rm.DiskAccess(DiskOp::kRead)), "no disks");
}

// A loop over CPU jobs of both classes and disk accesses, run as a member
// coroutine of an arena owner like the engine's services, so its frame is
// the arena's only allocation.
struct JobLoop {
  Simulation* sim;
  ResourceManager* rm;
  std::uint64_t allocs_after_first_round = 0;

  sim::Arena* process_arena() { return sim->arena(); }

  Process Run(int rounds) {
    for (int r = 0; r < rounds; ++r) {
      co_await rm->cpu().Execute(2000.0, CpuJobClass::kUser);
      co_await rm->cpu().Execute(500.0, CpuJobClass::kMessage);
      co_await rm->DiskAccess(r % 2 == 0 ? DiskOp::kRead : DiskOp::kWrite);
      if (r == 0) allocs_after_first_round = sim->arena()->total_allocations();
    }
  }
};

TEST(ResourceJobs, WarmJobsAllocateNothingFromTheArena) {
  Simulation sim;
  ResourceManager rm(&sim, 1.0, 2, 0.010, 0.030, 7, 0);
  // Two loops, so jobs also queue behind each other.
  JobLoop a{&sim, &rm};
  JobLoop b{&sim, &rm};
  const int kRounds = 1000;
  a.Run(kRounds);
  b.Run(kRounds);
  sim.Run();
  EXPECT_EQ(rm.cpu().jobs_completed(), 2u * 2u * kRounds);
  EXPECT_EQ(rm.disk(0).accesses_completed() + rm.disk(1).accesses_completed(),
            2u * kRounds);
  EXPECT_EQ(a.allocs_after_first_round, 2u);  // the two frames
  EXPECT_EQ(sim.arena()->total_allocations(), a.allocs_after_first_round);
  EXPECT_EQ(sim.arena()->total_allocations(), b.allocs_after_first_round);
}

}  // namespace
}  // namespace ccsim::resource
