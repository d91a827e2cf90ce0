// Micro-benchmarks of the simulator substrate itself (google-benchmark):
// event calendar throughput, processor-sharing CPU, lock table, RNG, and
// whole-machine simulation rates. These gate performance regressions in the
// engine that would make the figure sweeps slow.

#include <benchmark/benchmark.h>

#include "ccsim/cc/lock_table.h"
#include "ccsim/config/params.h"
#include "ccsim/engine/run.h"
#include "ccsim/experiments/experiments.h"
#include "ccsim/net/network.h"
#include "ccsim/resource/cpu.h"
#include "ccsim/sim/calendar.h"
#include "ccsim/sim/completion.h"
#include "ccsim/sim/random.h"
#include "ccsim/sim/simulation.h"
#include "ccsim/workload/access_generator.h"
#include "ccsim/db/placement.h"

namespace {

using namespace ccsim;

void BM_CalendarScheduleFire(benchmark::State& state) {
  sim::Simulation sim;
  double t = 0;
  for (auto _ : state) {
    t += 1.0;
    sim.At(t, [] {});
    sim.RunUntil(t);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CalendarScheduleFire);

void BM_CalendarDeepQueue(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation sim;
    for (int i = 0; i < depth; ++i) {
      sim.At(static_cast<double>(i), [] {});
    }
    state.ResumeTiming();
    sim.Run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * depth);
}
BENCHMARK(BM_CalendarDeepQueue)->Arg(1024)->Arg(65536);

// Cancel-heavy schedule/cancel churn at a fixed queue depth: the
// processor-sharing CPU re-arms its completion event on every arrival, so
// Cancel is on the whole-machine hot path too.
void BM_CalendarScheduleCancel(benchmark::State& state) {
  sim::Simulation sim;
  double t = 0;
  for (int i = 0; i < 256; ++i) sim.At(1e12 + i, [] {});  // standing depth
  for (auto _ : state) {
    t += 1.0;
    auto id = sim.At(t + 0.5, [] {});
    sim.Cancel(id);
    sim.At(t, [] {});
    sim.RunUntil(t);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CalendarScheduleCancel);

// Allocation-free wakeup path: Delay schedules a bare coroutine handle
// (EventKind::kResume), no closure. Items are process wakeups.
void BM_DelayWakeups(benchmark::State& state) {
  const int wakeups_per_proc = 1024;
  std::uint64_t items = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    auto proc = [](sim::Simulation* s, int n) -> sim::Process {
      for (int i = 0; i < n; ++i) co_await s->Delay(1.0);
    };
    for (int p = 0; p < 4; ++p) proc(&sim, wakeups_per_proc);
    sim.Run();
    items += 4 * wakeups_per_proc;
  }
  state.SetItemsProcessed(static_cast<int64_t>(items));
}
BENCHMARK(BM_DelayWakeups);

// Completion wakeups: one process awaits n completions in turn, and a
// handler one time unit later fulfils each, so every wakeup is scheduled at
// the current time (the calendar's same-time lane). BM_DelayWakeups covers
// wakeups at a later time.
void BM_CompletionWakeups(benchmark::State& state) {
  const int wakeups = 4096;
  std::uint64_t items = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    auto proc = [](sim::Simulation* s, int n) -> sim::Process {
      for (int i = 0; i < n; ++i) {
        auto c = sim::MakeCompletion<sim::Unit>(s);
        s->After(1.0, [c] { c->Complete(sim::Unit{}); });
        co_await sim::Await(c);
      }
    };
    proc(&sim, wakeups);
    sim.Run();
    items += wakeups;
  }
  state.SetItemsProcessed(static_cast<int64_t>(items));
}
BENCHMARK(BM_CompletionWakeups);

// Each job runs in a member coroutine of an arena owner, as the engine's
// do, so the row times the CPU rather than malloc. One item is one PS job
// and its wakeup.
struct PsJobOwner {
  sim::Simulation* sim;
  sim::Arena* process_arena() { return sim->arena(); }
  sim::Process Run(resource::Cpu* cpu, double seconds) {
    co_await cpu->ExecuteSeconds(seconds, resource::CpuJobClass::kUser);
  }
};

void BM_CpuProcessorSharing(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    resource::Cpu cpu(&sim, 1.0);
    PsJobOwner owner{&sim};
    for (int i = 0; i < jobs; ++i) owner.Run(&cpu, 0.001 * (i + 1));
    sim.Run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * jobs);
}
BENCHMARK(BM_CpuProcessorSharing)->Arg(8)->Arg(64)->Arg(512);

void BM_RandomExponential(benchmark::State& state) {
  sim::RandomStream rng(1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Exponential(8.0));
  }
}
BENCHMARK(BM_RandomExponential);

// Seeding cost: one item is one stream built from (master seed, stream id).
// A System builds one per terminal, node and disk, 3,074 for megascale_256.
void BM_RandomStreamConstruct(benchmark::State& state) {
  std::uint64_t stream_id = 0;
  for (auto _ : state) {
    sim::RandomStream rng(42, stream_id++);
    benchmark::DoNotOptimize(rng);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RandomStreamConstruct);

void BM_AccessGeneration(benchmark::State& state) {
  config::SystemConfig cfg = config::PaperBaseConfig();
  db::Catalog catalog(cfg.database,
                      db::ComputePlacement(cfg.database, 8, 8));
  workload::AccessGenerator gen(&cfg.workload, &catalog);
  sim::RandomStream rng(1, 3);
  int terminal = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Generate(terminal, rng));
    terminal = (terminal + 1) % cfg.workload.num_terminals;
  }
}
BENCHMARK(BM_AccessGeneration);

void BM_LockTableGrantRelease(benchmark::State& state) {
  sim::Simulation sim;
  cc::LockTable table(&sim);
  auto txn = std::make_shared<txn::Transaction>(
      1,
      workload::TransactionSpec{
          0, 0, 0, config::ExecPattern::kParallel,
          {workload::CohortSpec{1, {workload::PageAccess{PageRef{0, 0},
                                                         false}}}}},
      0.0, nullptr);
  txn->BeginAttempt(0.0);
  int page = 0;
  for (auto _ : state) {
    const workload::PageAccess access{PageRef{0, page++ & 1023}, true};
    table.Request(txn, access.page, cc::LockMode::kExclusive);
    table.ReleaseAll(1, {&access, 1}, false);
  }
}
BENCHMARK(BM_LockTableGrantRelease);

// Whole-machine simulation rate: simulated events per wall second for a
// short paper-shaped run under each algorithm.
void BM_FullSimulation(benchmark::State& state) {
  auto alg = static_cast<config::CcAlgorithm>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    config::SystemConfig cfg = config::PaperBaseConfig();
    cfg.algorithm = alg;
    cfg.workload.think_time_sec = 8.0;
    cfg.run.warmup_sec = 5;
    cfg.run.measure_sec = 45;
    auto r = engine::RunSimulation(cfg);
    events += r.events;
    benchmark::DoNotOptimize(r.throughput);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.SetLabel("items = simulated events");
}
BENCHMARK(BM_FullSimulation)
    ->Arg(static_cast<int>(config::CcAlgorithm::kNoDc))
    ->Arg(static_cast<int>(config::CcAlgorithm::kTwoPhaseLocking))
    ->Arg(static_cast<int>(config::CcAlgorithm::kWoundWait))
    ->Arg(static_cast<int>(config::CcAlgorithm::kBasicTimestamp))
    ->Arg(static_cast<int>(config::CcAlgorithm::kOptimistic))
    ->Unit(benchmark::kMillisecond);

// Message delivery through the network manager: host sends a burst of
// remote messages that serialize on its message-class CPU, each delivering
// through the full two-sided switch path. Items are messages delivered.
void BM_NetworkDelivery(benchmark::State& state) {
  const int msgs = 1024;
  std::uint64_t items = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    resource::Cpu host(&sim, 10.0);
    resource::Cpu node(&sim, 1.0);
    net::Network net(&sim, {&host, &node}, 1000.0);
    std::uint64_t delivered = 0;
    for (int i = 0; i < msgs; ++i) {
      net.Send(0, 1, net::MsgTag::kLoadCohort, [&delivered] { ++delivered; });
    }
    sim.Run();
    benchmark::DoNotOptimize(delivered);
    items += delivered;
  }
  state.SetItemsProcessed(static_cast<int64_t>(items));
  state.SetLabel("items = messages delivered");
}
BENCHMARK(BM_NetworkDelivery);

// The batching fast path on the same burst: the first send opens a batch
// and every co-timed follower piggybacks (one sender CPU charge, one wire
// crossing, one receiver charge for all of them), modelling a grant/vote
// burst leaving in one wire message. Items are messages delivered — the
// rate is directly comparable to BM_NetworkDelivery.
void BM_BatchedGrants(benchmark::State& state) {
  const int msgs = 1024;
  std::uint64_t items = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    resource::Cpu host(&sim, 10.0);
    resource::Cpu node(&sim, 1.0);
    config::NetParams params;
    params.batching = true;
    net::Network net(&sim, {&host, &node}, 1000.0, params);
    std::uint64_t delivered = 0;
    for (int i = 0; i < msgs; ++i) {
      net.Send(0, 1, net::MsgTag::kVote, [&delivered] { ++delivered; });
    }
    sim.Run();
    benchmark::DoNotOptimize(delivered);
    items += delivered;
  }
  state.SetItemsProcessed(static_cast<int64_t>(items));
  state.SetLabel("items = messages delivered");
}
BENCHMARK(BM_BatchedGrants);

// Whole-machine sim rate on a message-heavy distributed Experiment 2 shape
// (8 nodes, zero think time, small 2-page cohorts: the host is
// message-bound). Plain vs fastpath isolates the batching win;
// tools/check_bench_regression.py gates their commit-rate ratio at >= 1.2.
void RunMessageHeavy(benchmark::State& state, bool batching) {
  std::uint64_t commits = 0;
  for (auto _ : state) {
    config::SystemConfig cfg = experiments::MessageHeavyConfig(
        config::CcAlgorithm::kTwoPhaseLocking, batching);
    cfg.run.warmup_sec = 5;
    cfg.run.measure_sec = 60;
    auto r = engine::RunSimulation(cfg);
    commits += r.commits;
    benchmark::DoNotOptimize(r.throughput);
  }
  state.SetItemsProcessed(static_cast<int64_t>(commits));
  state.SetLabel("items = committed transactions");
}
void BM_MessageHeavyExp2Plain(benchmark::State& state) {
  RunMessageHeavy(state, /*batching=*/false);
}
BENCHMARK(BM_MessageHeavyExp2Plain)->Unit(benchmark::kMillisecond);
void BM_MessageHeavyExp2FastPath(benchmark::State& state) {
  RunMessageHeavy(state, /*batching=*/true);
}
BENCHMARK(BM_MessageHeavyExp2FastPath)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
