#include "ccsim/sim/simulation.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ccsim/config/params.h"
#include "ccsim/net/network.h"
#include "ccsim/resource/cpu.h"
#include "ccsim/resource/resource_manager.h"
#include "ccsim/sim/completion.h"
#include "ccsim/sim/process.h"

namespace ccsim::sim {
namespace {

TEST(Simulation, ClockAdvancesToEventTimes) {
  Simulation sim;
  std::vector<double> times;
  sim.At(1.5, [&] { times.push_back(sim.Now()); });
  sim.At(0.5, [&] { times.push_back(sim.Now()); });
  sim.Run();
  EXPECT_EQ(times, (std::vector<double>{0.5, 1.5}));
  EXPECT_DOUBLE_EQ(sim.Now(), 1.5);
}

TEST(Simulation, AfterSchedulesRelativeToNow) {
  Simulation sim;
  double fired_at = -1;
  sim.At(2.0, [&] { sim.After(3.0, [&] { fired_at = sim.Now(); }); });
  sim.Run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulation, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulation sim;
  int fired = 0;
  sim.At(1.0, [&] { ++fired; });
  sim.At(10.0, [&] { ++fired; });
  sim.RunUntil(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulation, RunUntilIncludesEventsAtBoundary) {
  Simulation sim;
  int fired = 0;
  sim.At(5.0, [&] { ++fired; });
  sim.RunUntil(5.0);
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, StopHaltsTheLoop) {
  Simulation sim;
  int fired = 0;
  sim.At(1.0, [&] {
    ++fired;
    sim.Stop();
  });
  sim.At(2.0, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, CountsFiredEvents) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) sim.At(i, [] {});
  sim.Run();
  EXPECT_EQ(sim.events_fired(), 7u);
}

// Counts its moves and copies, and records how many it had when it ran.
struct MoveCounter {
  MoveCounter(int* moves, int* moves_when_run)
      : moves(moves), moves_when_run(moves_when_run) {}
  MoveCounter(MoveCounter&& other) noexcept
      : moves(other.moves), moves_when_run(other.moves_when_run) {
    ++*moves;
  }
  MoveCounter(const MoveCounter& other)
      : moves(other.moves), moves_when_run(other.moves_when_run) {
    ++*moves;
  }
  void operator()() const { *moves_when_run = *moves; }
  int* moves;
  int* moves_when_run;
};

// At constructs a callable in its calendar slot, and the pop moves it once
// more, into the record it runs from; an EventFn is moved in once too. The
// slot slab is warmed first: growing it past its high-water mark moves the
// pending handlers along with their slots.
TEST(Simulation, AtMovesAHandlerAtMostTwiceBeforeItRuns) {
  Simulation sim;
  for (int i = 0; i < 4; ++i) sim.At(0.5, [] {});
  sim.Run();
  sim.At(5.0, [] {});  // the handlers below join a non-empty calendar
  int lambda_moves = 0;
  int lambda_moves_when_run = -1;
  sim.At(1.0, MoveCounter(&lambda_moves, &lambda_moves_when_run));
  int fn_moves = 0;
  int fn_moves_when_run = -1;
  EventFn fn(MoveCounter(&fn_moves, &fn_moves_when_run));
  const int fn_moves_before = fn_moves;
  sim.At(2.0, std::move(fn));
  sim.Run();
  EXPECT_GE(lambda_moves_when_run, 0);
  EXPECT_LE(lambda_moves_when_run, 2);
  EXPECT_GE(fn_moves_when_run, fn_moves_before);
  EXPECT_LE(fn_moves_when_run - fn_moves_before, 2);
}

TEST(SimulationDeathTest, RejectsSchedulingInThePast) {
  Simulation sim;
  sim.At(5.0, [] {});
  sim.Run();
  EXPECT_DEATH(sim.At(1.0, [] {}), "past");
}

// --- Coroutine process tests -----------------------------------------------

Process DelayTwice(Simulation& sim, std::vector<double>& trace) {
  trace.push_back(sim.Now());
  co_await sim.Delay(1.0);
  trace.push_back(sim.Now());
  co_await sim.Delay(2.5);
  trace.push_back(sim.Now());
}

TEST(Process, DelaysAdvanceSimulatedTime) {
  Simulation sim;
  std::vector<double> trace;
  DelayTwice(sim, trace);
  sim.Run();
  EXPECT_EQ(trace, (std::vector<double>{0.0, 1.0, 3.5}));
}

Process ZeroDelay(Simulation& sim, std::vector<int>& order, int tag) {
  co_await sim.Delay(0.0);
  order.push_back(tag);
}

TEST(Process, ZeroDelayYieldsThroughCalendarInFifoOrder) {
  Simulation sim;
  std::vector<int> order;
  ZeroDelay(sim, order, 1);
  ZeroDelay(sim, order, 2);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.Now(), 0.0);
}

Process AwaitValue(Simulation& sim, std::shared_ptr<Completion<int>> c,
                   std::vector<int>& got) {
  (void)sim;
  int v = co_await Await(c);
  got.push_back(v);
}

TEST(Completion, DeliversValueToWaiter) {
  Simulation sim;
  auto c = MakeCompletion<int>(&sim);
  std::vector<int> got;
  AwaitValue(sim, c, got);
  EXPECT_TRUE(got.empty());  // suspended until completion
  sim.At(2.0, [&] { c->Complete(42); });
  sim.Run();
  EXPECT_EQ(got, (std::vector<int>{42}));
}

TEST(Completion, CompleteBeforeAwaitDoesNotSuspend) {
  Simulation sim;
  auto c = MakeCompletion<int>(&sim);
  c->Complete(7);
  std::vector<int> got;
  AwaitValue(sim, c, got);
  EXPECT_EQ(got, (std::vector<int>{7}));  // resumed synchronously
}

TEST(Completion, ResumptionGoesThroughCalendarAtCurrentTime) {
  Simulation sim;
  auto c = MakeCompletion<int>(&sim);
  std::vector<int> got;
  AwaitValue(sim, c, got);
  std::vector<int> order;
  sim.At(1.0, [&] {
    c->Complete(1);
    order.push_back(0);  // runs before the waiter resumes
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(got, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(sim.Now(), 1.0);
}

Process AwaitThenRecord(std::shared_ptr<Completion<int>> c,
                        std::vector<std::string>* order) {
  (void)co_await Await(std::move(c));
  order->push_back("waiter");
}

// A wakeup at the current time (the calendar's same-time lane) fires in
// schedule order among handlers scheduled at that same instant.
TEST(Completion, WakeupKeepsScheduleOrderAmongSameTimeHandlers) {
  Simulation sim;
  auto c = MakeCompletion<int>(&sim);
  std::vector<std::string> order;
  AwaitThenRecord(c, &order);
  sim.At(1.0, [&] {
    sim.At(sim.Now(), [&] { order.push_back("A"); });
    c->Complete(1);
    sim.At(sim.Now(), [&] { order.push_back("B"); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"A", "waiter", "B"}));
  EXPECT_DOUBLE_EQ(sim.Now(), 1.0);
  EXPECT_EQ(sim.suspended_processes(), 0u);
}

TEST(CompletionDeathTest, DoubleCompleteIsFatal) {
  Simulation sim;
  auto c = MakeCompletion<int>(&sim);
  c->Complete(1);
  EXPECT_DEATH(c->Complete(2), "twice");
}

TEST(Latch, CompletesAtZero) {
  Simulation sim;
  Latch latch(&sim, 3);
  EXPECT_FALSE(latch.completion()->done());
  latch.CountDown();
  latch.CountDown();
  EXPECT_FALSE(latch.completion()->done());
  latch.CountDown();
  EXPECT_TRUE(latch.completion()->done());
}

TEST(Latch, ZeroCountCompletesImmediately) {
  Simulation sim;
  Latch latch(&sim, 0);
  EXPECT_TRUE(latch.completion()->done());
}

// Sets *flag when destroyed; placed as a process local, it records when the
// coroutine frame itself is destroyed.
struct DtorFlag {
  bool* flag;
  ~DtorFlag() { *flag = true; }
};

Process SleepForever(Simulation* sim, bool* frame_destroyed) {
  DtorFlag guard{frame_destroyed};
  for (;;) co_await sim->Delay(1.0);
}

Process AwaitForever(Simulation* sim, std::shared_ptr<Completion<int>> c,
                     bool* frame_destroyed) {
  DtorFlag guard{frame_destroyed};
  (void)sim;
  (void)co_await Await(std::move(c));
}

Process DelayNTimes(Simulation* sim, int n, bool* frame_destroyed) {
  DtorFlag guard{frame_destroyed};
  for (int i = 0; i < n; ++i) co_await sim->Delay(1.0);
}

TEST(ProcessTeardown, DelaySuspendedFrameDestroyedWithSimulation) {
  bool destroyed = false;
  {
    Simulation sim;
    SleepForever(&sim, &destroyed);
    sim.RunUntil(10.0);
    EXPECT_FALSE(destroyed);
    EXPECT_EQ(sim.suspended_processes(), 1u);
  }
  EXPECT_TRUE(destroyed);
}

TEST(ProcessTeardown, CompletionSuspendedFrameDestroyedWithSimulation) {
  bool destroyed = false;
  {
    Simulation sim;
    auto c = MakeCompletion<int>(&sim);
    AwaitForever(&sim, c, &destroyed);
    sim.Run();  // nothing ever fulfills c
    EXPECT_FALSE(destroyed);
    EXPECT_EQ(sim.suspended_processes(), 1u);
  }
  EXPECT_TRUE(destroyed);
}

template <typename Job>
Process AwaitJob(Job job, bool* frame_destroyed) {
  DtorFlag guard{frame_destroyed};
  co_await job;
}

TEST(ProcessTeardown, QueuedJobFramesDestroyedWithSimulation) {
  // RunUntil stops with message, PS and disk jobs queued: one message in
  // service and two behind it, three stalled PS jobs, one disk access in
  // service and one waiting. The jobs live in their awaiting frames. As in
  // System, the resources die first; then the registry destroys the frames.
  constexpr int kEach = 3;
  bool destroyed[3 * kEach] = {};
  {
    Simulation sim;
    resource::ResourceManager rm(&sim, 1.0, 1, 1.0, 1.0, 7, 0);
    for (int i = 0; i < kEach; ++i) {
      AwaitJob(rm.cpu().ExecuteSeconds(10.0, resource::CpuJobClass::kMessage),
               &destroyed[i]);
      AwaitJob(rm.cpu().ExecuteSeconds(10.0, resource::CpuJobClass::kUser),
               &destroyed[kEach + i]);
      AwaitJob(rm.DiskAccess(resource::DiskOp::kRead),
               &destroyed[2 * kEach + i]);
    }
    sim.RunUntil(1.5);
    EXPECT_EQ(rm.cpu().messages_queued(), 3u);
    EXPECT_EQ(rm.cpu().ps_jobs_active(), 3u);
    EXPECT_EQ(rm.disk(0).queue_length(), 2u);
    EXPECT_TRUE(destroyed[2 * kEach]);  // the first access finished at 1.0
    EXPECT_EQ(sim.suspended_processes(), 3u * kEach - 1u);
  }
  for (bool d : destroyed) EXPECT_TRUE(d);
}

TEST(ProcessTeardown, OpenBatchFrameAndRidersDestroyedWithSimulation) {
  // RunUntil stops while a batch is still open: the opening send's CPU
  // charge is in service, and the delivery frame holds the opener's and two
  // riders' closures. The registry's destroy of that frame frees them all.
  auto token = std::make_shared<int>(0);
  {
    Simulation sim;
    resource::Cpu sender(&sim, 1.0);
    resource::Cpu receiver(&sim, 1.0);
    config::NetParams params;
    params.batching = true;
    // 10 s of message CPU per charge at 1 MIPS.
    net::Network net(&sim, {&sender, &receiver}, 1e7, params);
    for (int i = 0; i < 3; ++i) {
      net.Send(0, 1, net::MsgTag::kVote, [token] {});
    }
    sim.RunUntil(1.0);
    EXPECT_EQ(net.batches_sent(), 1u);
    EXPECT_EQ(net.messages_batched(), 2u);
    EXPECT_EQ(sim.suspended_processes(), 1u);
    EXPECT_EQ(token.use_count(), 4);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(ProcessTeardown, RegistryEmptiesWhenProcessFinishesNormally) {
  Simulation sim;
  bool destroyed = false;
  DelayNTimes(&sim, 3, &destroyed);
  EXPECT_EQ(sim.suspended_processes(), 1u);
  sim.Run();
  EXPECT_TRUE(destroyed);  // frame auto-destroyed when the body returned
  EXPECT_EQ(sim.suspended_processes(), 0u);
}

}  // namespace
}  // namespace ccsim::sim
