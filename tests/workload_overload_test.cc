// Open-system overload layer: the Source's Poisson arrival mode, the
// admission controller's three policies, deadlines / backoff / restart
// budgets in the engine, the idle-probe watchdog interaction, and
// fingerprint stability of the all-off defaults.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "ccsim/config/params.h"
#include "ccsim/db/catalog.h"
#include "ccsim/db/placement.h"
#include "ccsim/engine/run.h"
#include "ccsim/engine/system.h"
#include "ccsim/experiments/cache.h"
#include "ccsim/net/network.h"
#include "ccsim/sim/completion.h"
#include "ccsim/sim/simulation.h"
#include "ccsim/workload/admission.h"
#include "ccsim/workload/source.h"
#include "test_util.h"

namespace ccsim::workload {
namespace {

// --- Source, open mode ------------------------------------------------------

struct OpenFixture {
  explicit OpenFixture(double lambda) : cfg(config::PaperBaseConfig()) {
    cfg.overload.arrival_rate_per_sec = lambda;
    catalog = std::make_unique<db::Catalog>(
        cfg.database, db::ComputePlacement(cfg.database, 8, 8));
  }
  config::SystemConfig cfg;
  std::unique_ptr<db::Catalog> catalog;
  sim::Simulation sim;
};

TEST(OpenSource, ArrivalCountMatchesPoissonRate) {
  // Fixed seed: N arrivals in [0, T] should land within 4 sigma of
  // lambda * T (sigma = sqrt(lambda * T) for a Poisson count).
  const double lambda = 5.0, horizon = 400.0;
  OpenFixture f(lambda);
  std::uint64_t arrivals = 0;
  Source source(&f.sim, &f.cfg, f.catalog.get(), [&](TransactionSpec) {
    ++arrivals;
    return sim::MakeCompletion<sim::Unit>(&f.sim);
  });
  source.Start();
  f.sim.RunUntil(horizon);
  const double expected = lambda * horizon;
  const double sigma = std::sqrt(expected);
  EXPECT_NEAR(static_cast<double>(arrivals), expected, 4.0 * sigma);
  EXPECT_EQ(source.transactions_submitted(), arrivals);
}

TEST(OpenSource, InterArrivalGapsAreExponential) {
  // Chi-square goodness of fit of the observed inter-arrival gaps against
  // Exponential(1/lambda), ten equal-probability bins. With ~2000 samples
  // and 9 degrees of freedom the 99% critical value is 21.67; a fixed seed
  // makes the statistic reproducible, so this cannot flake.
  const double lambda = 5.0;
  OpenFixture f(lambda);
  std::vector<double> arrival_times;
  Source source(&f.sim, &f.cfg, f.catalog.get(), [&](TransactionSpec) {
    arrival_times.push_back(f.sim.Now());
    return sim::MakeCompletion<sim::Unit>(&f.sim);
  });
  source.Start();
  f.sim.RunUntil(400.0);
  ASSERT_GT(arrival_times.size(), 1000u);

  constexpr int kBins = 10;
  int counts[kBins] = {};
  const double mean = 1.0 / lambda;
  const std::size_t n = arrival_times.size() - 1;
  for (std::size_t i = 1; i < arrival_times.size(); ++i) {
    const double gap = arrival_times[i] - arrival_times[i - 1];
    // Equal-probability bin index from the exponential CDF.
    const double u = 1.0 - std::exp(-gap / mean);
    int bin = static_cast<int>(u * kBins);
    if (bin >= kBins) bin = kBins - 1;
    ++counts[bin];
  }
  const double expected = static_cast<double>(n) / kBins;
  double chi2 = 0.0;
  for (int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 21.67) << "inter-arrival gaps reject exponentiality";
}

TEST(OpenSource, TerminalIndicesCycleThroughTheTerminalSpace) {
  OpenFixture f(10.0);
  f.cfg.workload.num_terminals = 16;
  std::vector<int> terminals;
  Source source(&f.sim, &f.cfg, f.catalog.get(), [&](TransactionSpec s) {
    terminals.push_back(s.terminal);
    return sim::MakeCompletion<sim::Unit>(&f.sim);
  });
  source.Start();
  f.sim.RunUntil(10.0);
  ASSERT_GT(terminals.size(), 32u);
  for (std::size_t i = 0; i < terminals.size(); ++i) {
    EXPECT_EQ(terminals[i], static_cast<int>(i % 16));
  }
}

TEST(OpenSource, BlockPolicyBackpressuresTheArrivalClock) {
  // One in-flight slot, no queue, kBlock, and an engine that never finishes
  // anything: exactly one transaction enters; the arrival process stays
  // parked on WhenSpace instead of offering into a full system.
  OpenFixture f(50.0);
  f.cfg.overload.max_in_flight = 1;
  f.cfg.overload.admission_policy = config::AdmissionPolicy::kBlock;
  std::vector<std::shared_ptr<sim::Completion<sim::Unit>>> held;
  AdmissionController admission(&f.sim, &f.cfg.overload,
                                [&](TransactionSpec) {
                                  auto c = sim::MakeCompletion<sim::Unit>(&f.sim);
                                  held.push_back(c);
                                  return c;
                                });
  Source source(
      &f.sim, &f.cfg, f.catalog.get(),
      [&](TransactionSpec spec) { return admission.Offer(std::move(spec)); },
      &admission);
  source.Start();
  f.sim.RunUntil(10.0);
  EXPECT_EQ(held.size(), 1u);
  EXPECT_EQ(admission.shed(), 0u);
  // Freeing the slot un-parks the arrival process for exactly one more.
  held[0]->Complete(sim::Unit{});
  f.sim.RunUntil(20.0);
  EXPECT_EQ(held.size(), 2u);
}

// --- AdmissionController ----------------------------------------------------

struct AdmissionFixture {
  AdmissionFixture(int max_in_flight, int queue_cap,
                   config::AdmissionPolicy policy) {
    params.arrival_rate_per_sec = 1.0;  // open system (unused by the unit)
    params.max_in_flight = max_in_flight;
    params.admission_queue_cap = queue_cap;
    params.admission_policy = policy;
    admission = std::make_unique<AdmissionController>(
        &sim, &params, [this](TransactionSpec) {
          auto c = sim::MakeCompletion<sim::Unit>(&sim);
          inner.push_back(c);
          return c;
        });
  }
  /// Completes the i-th admitted transaction and drains the calendar.
  void Finish(std::size_t i) {
    inner.at(i)->Complete(sim::Unit{});
    sim.Run();
  }
  sim::Simulation sim;
  config::OverloadParams params;
  std::vector<std::shared_ptr<sim::Completion<sim::Unit>>> inner;
  std::unique_ptr<AdmissionController> admission;
};

TEST(Admission, AdmitsUpToCapThenQueuesThenShedsNewest) {
  AdmissionFixture f(2, 2, config::AdmissionPolicy::kShedNewest);
  std::vector<std::shared_ptr<sim::Completion<sim::Unit>>> outer;
  for (int i = 0; i < 6; ++i) outer.push_back(f.admission->Offer({}));
  EXPECT_EQ(f.admission->in_flight(), 2);
  EXPECT_EQ(f.admission->queue_depth(), 2);
  EXPECT_EQ(f.admission->offered(), 6u);
  EXPECT_EQ(f.admission->admitted(), 2u);
  EXPECT_EQ(f.admission->shed(), 2u);
  // Shed arrivals complete immediately (they never enter the engine);
  // admitted and queued ones stay pending.
  EXPECT_TRUE(outer[4]->done() && outer[5]->done());
  EXPECT_FALSE(outer[0]->done() || outer[2]->done());
  EXPECT_EQ(f.admission->queue_depth_max(), 2u);
}

TEST(Admission, FinishPumpsTheQueueInFifoOrder) {
  AdmissionFixture f(1, 2, config::AdmissionPolicy::kShedNewest);
  auto a = f.admission->Offer({});
  auto b = f.admission->Offer({});
  auto c = f.admission->Offer({});
  ASSERT_EQ(f.inner.size(), 1u);
  f.Finish(0);  // a finishes -> b admitted
  EXPECT_TRUE(a->done());
  ASSERT_EQ(f.inner.size(), 2u);
  EXPECT_EQ(f.admission->queue_depth(), 1);
  f.Finish(1);  // b finishes -> c admitted
  EXPECT_TRUE(b->done());
  ASSERT_EQ(f.inner.size(), 3u);
  EXPECT_EQ(f.admission->queue_depth(), 0);
  f.Finish(2);
  EXPECT_TRUE(c->done());
  EXPECT_EQ(f.admission->in_flight(), 0);
  EXPECT_EQ(f.admission->admitted(), 3u);
  EXPECT_EQ(f.admission->shed(), 0u);
}

TEST(Admission, ShedOldestDropsTheQueueHeadForTheArrival) {
  AdmissionFixture f(1, 2, config::AdmissionPolicy::kShedOldest);
  auto running = f.admission->Offer({});
  auto oldest = f.admission->Offer({});   // queue head
  auto middle = f.admission->Offer({});   // queue tail
  auto arrival = f.admission->Offer({});  // full: sheds `oldest`
  EXPECT_EQ(f.admission->shed(), 1u);
  EXPECT_TRUE(oldest->done());
  EXPECT_FALSE(arrival->done());
  EXPECT_EQ(f.admission->queue_depth(), 2);
  // Drain: middle then the late arrival, in queue order.
  f.Finish(0);
  EXPECT_TRUE(running->done());
  f.Finish(1);
  EXPECT_TRUE(middle->done());
  f.Finish(2);
  EXPECT_TRUE(arrival->done());
}

TEST(Admission, ShedOldestWithoutQueueDegeneratesToTheArrival) {
  AdmissionFixture f(1, 0, config::AdmissionPolicy::kShedOldest);
  auto running = f.admission->Offer({});
  auto arrival = f.admission->Offer({});
  EXPECT_TRUE(arrival->done());  // shed: nothing older is waiting
  EXPECT_FALSE(running->done());
  EXPECT_EQ(f.admission->shed(), 1u);
}

TEST(Admission, WhenSpaceFiresOnceASlotFrees) {
  AdmissionFixture f(1, 0, config::AdmissionPolicy::kBlock);
  f.admission->Offer({});
  EXPECT_FALSE(f.admission->HasSpace());
  auto waiter = f.admission->WhenSpace();
  EXPECT_FALSE(waiter->done());
  f.Finish(0);
  EXPECT_TRUE(waiter->done());
  EXPECT_TRUE(f.admission->HasSpace());
  // With space available, WhenSpace completes immediately.
  EXPECT_TRUE(f.admission->WhenSpace()->done());
}

// --- Engine integration: deadlines, backoff, budgets ------------------------

config::SystemConfig OpenSmallConfig(config::CcAlgorithm alg, double lambda) {
  auto cfg = test::SmallConfig(alg, /*think_time=*/0.0);
  cfg.overload.arrival_rate_per_sec = lambda;
  return cfg;
}

TEST(OverloadEngine, NoDeadlineMeansGoodputEqualsThroughput) {
  auto cfg = OpenSmallConfig(config::CcAlgorithm::kTwoPhaseLocking, 2.0);
  auto r = engine::RunSimulation(cfg);
  EXPECT_GT(r.commits, 0u);
  EXPECT_EQ(r.goodput_deadline, r.throughput);
  EXPECT_EQ(r.txns_deadline_missed, 0u);
  EXPECT_EQ(r.txns_retry_exhausted, 0u);
  // No admission controller: every offer is an admission.
  EXPECT_EQ(r.txns_offered, r.transactions_submitted);
  EXPECT_EQ(r.txns_admitted, r.transactions_submitted);
  EXPECT_EQ(r.txns_shed, 0u);
}

TEST(OverloadEngine, TightDeadlineCountsMissesAndAbandons) {
  // A 0.2 s deadline on a machine whose mean response time is far larger:
  // every slow commit counts as a miss and aborted transactions are
  // abandoned at their next restart point instead of retrying.
  auto cfg = OpenSmallConfig(config::CcAlgorithm::kTwoPhaseLocking, 3.0);
  cfg.overload.txn_deadline_sec = 0.2;
  auto r = engine::RunSimulation(cfg);
  EXPECT_GT(r.commits, 0u);
  EXPECT_GT(r.txns_deadline_missed, 0u);
  EXPECT_LT(r.goodput_deadline, r.throughput);
}

TEST(OverloadEngine, RestartBudgetAbandonsAfterMaxRestarts) {
  // Budget 0: the first abort abandons the transaction. High contention
  // (hot 4-node machine, lambda past its capacity) guarantees aborts.
  auto cfg = OpenSmallConfig(config::CcAlgorithm::kWoundWait, 6.0);
  cfg.overload.max_restarts = 0;
  auto r = engine::RunSimulation(cfg);
  EXPECT_GT(r.aborts, 0u);
  EXPECT_GT(r.txns_retry_exhausted, 0u);
}

TEST(OverloadEngine, BackoffRunsAreDeterministic) {
  auto cfg = OpenSmallConfig(config::CcAlgorithm::kTwoPhaseLocking, 10.0);
  cfg.overload.txn_deadline_sec = 10.0;
  cfg.overload.restart_backoff_base_sec = 0.25;
  cfg.overload.restart_backoff_cap_sec = 2.0;
  cfg.overload.max_in_flight = 4;
  cfg.overload.admission_queue_cap = 2;
  cfg.overload.admission_policy = config::AdmissionPolicy::kShedNewest;
  engine::RunResult a = engine::RunSimulation(cfg);
  engine::RunResult b = engine::RunSimulation(cfg);
  EXPECT_GT(a.commits, 0u);
  EXPECT_GT(a.txns_shed, 0u);
  a.wall_seconds = b.wall_seconds = 0.0;
  EXPECT_EQ(experiments::SerializeResult(a), experiments::SerializeResult(b));
}

TEST(OverloadEngine, OpenMatchesClosedAtTheSameEffectiveLoad) {
  // Closed run first; then an open run offering the closed system's own
  // committed rate. The machine sees the same effective load, so throughput
  // must match closely and response time must stay the same order.
  auto closed_cfg =
      test::SmallConfig(config::CcAlgorithm::kTwoPhaseLocking, 8.0);
  auto closed = engine::RunSimulation(closed_cfg);
  ASSERT_GT(closed.throughput, 0.0);

  auto open_cfg = OpenSmallConfig(config::CcAlgorithm::kTwoPhaseLocking,
                                  closed.throughput);
  auto open = engine::RunSimulation(open_cfg);
  EXPECT_NEAR(open.throughput, closed.throughput, 0.15 * closed.throughput);
  EXPECT_LT(open.mean_response_time, 4.0 * closed.mean_response_time);
}

TEST(OverloadEngine, ShedNewestBoundsInFlightAndSheds) {
  auto cfg = OpenSmallConfig(config::CcAlgorithm::kTwoPhaseLocking, 8.0);
  cfg.overload.max_in_flight = 4;
  cfg.overload.admission_queue_cap = 2;
  cfg.overload.admission_policy = config::AdmissionPolicy::kShedNewest;
  cfg.overload.txn_deadline_sec = 20.0;
  auto r = engine::RunSimulation(cfg);
  EXPECT_GT(r.commits, 0u);
  EXPECT_GT(r.txns_shed, 0u);
  EXPECT_EQ(r.txns_offered, r.txns_admitted + r.txns_shed);
  EXPECT_LE(r.admission_queue_max, 2u);
  EXPECT_GT(r.admission_queue_mean, 0.0);
}

// --- Watchdog idle probe ----------------------------------------------------

TEST(OverloadWatchdog, QuietOpenSystemDoesNotTripTheStallWatchdog) {
  // Mean inter-arrival gap (500 s) far beyond the stall limit (5 s): a
  // legitimately idle open system must ride through the silence that would
  // previously have been diagnosed as a wedged run.
  auto cfg = OpenSmallConfig(config::CcAlgorithm::kTwoPhaseLocking, 0.002);
  cfg.run.warmup_sec = 10;
  cfg.run.measure_sec = 2000;
  cfg.run.watchdog_stall_sec = 5.0;
  auto r = engine::RunSimulation(cfg);
  EXPECT_LE(r.commits, 10u);  // a handful of arrivals at most
}

using OverloadWatchdogDeathTest = ::testing::Test;

TEST(OverloadWatchdogDeathTest, WedgedOpenSystemStillDies) {
  // Live transactions that cannot make progress (every message eaten, no
  // protocol rescue) must still trip the stall watchdog: the idle probe
  // only excuses a system with nothing in flight.
  auto cfg = OpenSmallConfig(config::CcAlgorithm::kNoDc, 2.0);
  cfg.run.watchdog_stall_sec = 5.0;
  EXPECT_DEATH(
      {
        engine::System sys(cfg);
        sys.network().SetFaultPolicy(net::Network::FaultPolicy{
            .should_drop = [](NodeId, NodeId, net::MsgTag) { return true; },
        });
        sys.Run();
      },
      "no progress within the stall limit");
}

// --- Config: validation and fingerprint stability ---------------------------

TEST(OverloadConfigCheck, ValidateRejectsInconsistentKnobs) {
  auto base = test::SmallConfig(config::CcAlgorithm::kTwoPhaseLocking, 1.0);
  EXPECT_EQ(base.Validate(), "");

  auto c = base;
  c.overload.max_in_flight = 4;  // admission without an open system
  EXPECT_NE(c.Validate(), "");

  c = base;
  c.overload.arrival_rate_per_sec = 1.0;
  c.overload.admission_queue_cap = 4;  // queue without an in-flight cap
  EXPECT_NE(c.Validate(), "");

  c = base;
  c.overload.arrival_rate_per_sec = -1.0;
  EXPECT_NE(c.Validate(), "");

  c = base;
  c.overload.restart_backoff_base_sec = 2.0;
  c.overload.restart_backoff_cap_sec = 1.0;  // cap below base
  EXPECT_NE(c.Validate(), "");

  c = base;
  c.overload.arrival_rate_per_sec = 1.0;
  c.overload.max_in_flight = 4;
  c.overload.admission_queue_cap = 4;
  c.overload.txn_deadline_sec = 30.0;
  c.overload.restart_backoff_base_sec = 0.5;
  c.overload.max_restarts = 10;
  EXPECT_EQ(c.Validate(), "");
}

TEST(OverloadConfigCheck, AllOffDefaultsKeepTheFingerprint) {
  // The overload block is mixed into Fingerprint() only when any() is true,
  // so every pre-overload cache entry and determinism golden stays valid.
  auto base = test::SmallConfig(config::CcAlgorithm::kTwoPhaseLocking, 4.0);
  auto zero = base;
  zero.overload = config::OverloadParams{};
  EXPECT_EQ(base.Fingerprint(), zero.Fingerprint());

  auto on = base;
  on.overload.arrival_rate_per_sec = 2.0;
  EXPECT_NE(on.Fingerprint(), base.Fingerprint());

  auto deadline = base;
  deadline.overload.txn_deadline_sec = 30.0;
  EXPECT_NE(deadline.Fingerprint(), base.Fingerprint());
  EXPECT_NE(deadline.Fingerprint(), on.Fingerprint());

  auto budget = base;
  budget.overload.max_restarts = 0;  // 0 is a real budget, not "off"
  EXPECT_NE(budget.Fingerprint(), base.Fingerprint());
}

}  // namespace
}  // namespace ccsim::workload
