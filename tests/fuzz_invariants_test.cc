// Randomized stress tests: drive core mechanisms with random operation
// sequences and check invariants against simple oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ccsim/cc/lock_table.h"
#include "ccsim/cc/waits_for_graph.h"
#include "ccsim/resource/cpu.h"
#include "ccsim/sim/process.h"
#include "ccsim/sim/random.h"
#include "test_util.h"

namespace ccsim {
namespace {

using cc::AccessOutcome;
using cc::LockMode;
using cc::LockTable;
using cc::WaitEdge;
using cc::WaitsForGraph;
using test::MakeTxn;

// --- Lock table fuzz ---------------------------------------------------------

// Random request/release sequences. Invariants:
//  * a granted exclusive lock never coexists with another grant on the page,
//  * after every transaction releases, no waiter is left behind,
//  * every request eventually completes (granted or aborted).
class LockTableFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LockTableFuzz, RandomScheduleMaintainsInvariants) {
  sim::Simulation sim;
  LockTable table(&sim);
  sim::RandomStream rng(GetParam(), 0);

  constexpr int kTxns = 12;
  constexpr int kPages = 6;
  constexpr int kOps = 400;

  // Every transaction's cohort may touch every page, so its accesses cover
  // whatever it locks.
  std::vector<PageRef> pages;
  for (int page = 0; page < kPages; ++page) pages.push_back(PageRef{0, page});
  std::vector<txn::TxnPtr> txns;
  for (int i = 0; i < kTxns; ++i) {
    txns.push_back(MakeTxn(static_cast<TxnId>(i + 1), 1, pages, 0,
                           static_cast<double>(i)));
  }
  // Track every outstanding completion and which (txn, page) pairs were
  // requested, to avoid illegal duplicate requests.
  struct Pending {
    std::shared_ptr<sim::Completion<AccessOutcome>> completion;
  };
  std::vector<Pending> all;
  std::set<std::pair<TxnId, int>> requested;
  std::set<TxnId> alive(  // txns that have not been released yet
      {});
  for (auto& t : txns) alive.insert(t->id());

  for (int op = 0; op < kOps; ++op) {
    int kind = static_cast<int>(rng.UniformInt(0, 3));
    auto& t = txns[static_cast<std::size_t>(
        rng.UniformInt(0, kTxns - 1))];
    if (kind < 3) {
      if (!alive.count(t->id())) continue;
      int page = static_cast<int>(rng.UniformInt(0, kPages - 1));
      auto key = std::make_pair(t->id(), page);
      bool is_upgrade_ok = !requested.count(key);
      if (!is_upgrade_ok) continue;
      requested.insert(key);
      LockMode mode =
          rng.Bernoulli(0.3) ? LockMode::kExclusive : LockMode::kShared;
      auto result = table.Request(t, PageRef{0, page}, mode);
      all.push_back(Pending{result.completion});
    } else {
      // Release everything the txn holds/waits for; it leaves the game.
      if (!alive.count(t->id())) continue;
      alive.erase(t->id());
      table.ReleaseAll(t->id(), t->cohort_spec(0).accesses,
                       /*abort_waiters=*/true);
      // Forget its requests so invariant bookkeeping stays consistent.
      for (auto it = requested.begin(); it != requested.end();) {
        if (it->first == t->id()) it = requested.erase(it);
        else ++it;
      }
    }
  }
  // Finish: release everyone still alive.
  for (auto& t : txns) {
    table.ReleaseAll(t->id(), t->cohort_spec(0).accesses, true);
  }
  EXPECT_EQ(table.num_locked_pages(), 0u);
  EXPECT_EQ(table.num_waiting_requests(), 0u);
  // No lost wakeups: every request completed one way or the other.
  for (auto& p : all) {
    EXPECT_TRUE(p.completion->done());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockTableFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// --- Live deadlock search vs graph oracle ------------------------------------

// Local deadlock detection searches the live lock table from the blocked
// transaction. The oracle is the graph path it replaced: build a
// WaitsForGraph from WaitsForEdges(), then FindCycleFrom + YoungestOf.
// After every request that queues, both must name the same cycle (members
// in the same order) and the same victim.
enum class Schedule {
  kUpgrades,         // 2PL: reads, writes and shared->exclusive upgrades
  kQueueJump,        // the same under set_allow_queue_jump(true)
  kPrepareUpgrades,  // 2PL-DW: shared locks, then every upgrade at once
};

std::string ScheduleName(Schedule s) {
  switch (s) {
    case Schedule::kUpgrades: return "Upgrades";
    case Schedule::kQueueJump: return "QueueJump";
    case Schedule::kPrepareUpgrades: return "PrepareUpgrades";
  }
  return "?";
}

class LockTableSearchFuzz
    : public ::testing::TestWithParam<std::tuple<Schedule, std::uint64_t>> {
 protected:
  struct Player {
    txn::TxnPtr txn;
    std::map<int, LockMode> requested;  // page -> strongest mode requested
    std::vector<std::pair<int, std::shared_ptr<sim::Completion<AccessOutcome>>>>
        pending;  // (page, completion) of requests not yet granted
    bool prepared = false;
  };

  // Compares the live search with the oracle from `t`. Returns the victim,
  // or 0 when there is no cycle.
  TxnId CheckSearch(LockTable& table, const txn::Transaction& t) {
    WaitsForGraph graph;
    graph.AddEdges(table.WaitsForEdges());
    std::vector<TxnId> expected = graph.FindCycleFrom(t.id());
    std::vector<TxnId> found;
    const auto& cycle = table.FindCycleFrom(t);
    for (const auto& member : cycle) found.push_back(member.id);
    EXPECT_EQ(found, expected) << "search from txn " << t.id();
    ++searches_;
    if (expected.empty() || found != expected) return 0;
    TxnId victim = cc::YoungestMember(cycle);
    EXPECT_EQ(victim, graph.YoungestOf(expected));
    ++cycles_;
    return victim;
  }

  int searches_ = 0;
  int cycles_ = 0;
};

TEST_P(LockTableSearchFuzz, LiveSearchMatchesGraphOracle) {
  const auto [schedule, seed] = GetParam();
  sim::Simulation sim;
  LockTable table(&sim);
  table.set_allow_queue_jump(schedule == Schedule::kQueueJump);
  sim::RandomStream rng(seed, 3);

  constexpr int kPlayers = 10;
  constexpr int kPages = 6;
  constexpr int kOps = 600;

  TxnId next_id = 1;
  int queued_upgrades = 0;
  int multi_pending = 0;  // searches from a txn with several pending requests
  std::vector<Player> players(kPlayers);
  // Every cohort may touch every page, so its accesses cover its locks.
  std::vector<PageRef> pages;
  for (int page = 0; page < kPages; ++page) pages.push_back(PageRef{0, page});
  // A fresh transaction with a random start time, so the victim (youngest
  // initial timestamp) is not simply the largest TxnId.
  auto reincarnate = [&](Player& p) {
    p = Player{};
    p.txn = MakeTxn(next_id++, 1, pages, 0, rng.Uniform(0, 100));
  };
  auto release = [&](const Player& p, bool abort) {
    table.ReleaseAll(p.txn->id(), p.txn->cohort_spec(0).accesses, abort);
  };
  for (Player& p : players) reincarnate(p);
  auto forget_done = [](Player& p) {
    auto& pend = p.pending;
    pend.erase(std::remove_if(pend.begin(), pend.end(),
                              [](const auto& e) { return e.second->done(); }),
               pend.end());
  };
  auto finish = [&](Player& p) {
    forget_done(p);
    // A commit never leaves pending requests; an abort releases them too.
    bool abort = !p.pending.empty() || rng.Bernoulli(0.5);
    release(p, abort);
    reincarnate(p);
  };
  // Issues one request and, if it queued, runs both searches; on a cycle,
  // usually aborts the victim (as the manager does), sometimes leaves the
  // deadlock for later searches to reach downstream.
  auto request = [&](Player& p, int page, LockMode mode) {
    auto result = table.Request(p.txn, PageRef{0, page}, mode);
    auto [it, inserted] = p.requested.emplace(page, mode);
    if (!inserted && mode == LockMode::kExclusive) it->second = mode;
    if (result.granted_immediately) return;
    if (table.HoldsLock(p.txn->id(), PageRef{0, page})) ++queued_upgrades;
    p.pending.emplace_back(page, result.completion);
    if (p.pending.size() > 1) ++multi_pending;
    TxnId victim = CheckSearch(table, *p.txn);
    if (victim == 0 || rng.Bernoulli(0.25)) return;
    for (Player& q : players) {
      if (q.txn->id() != victim) continue;
      release(q, /*abort=*/true);
      reincarnate(q);
    }
  };

  for (int op = 0; op < kOps; ++op) {
    Player& p = players[static_cast<std::size_t>(
        rng.UniformInt(0, kPlayers - 1))];
    forget_done(p);
    int kind = static_cast<int>(rng.UniformInt(0, 9));
    if (kind == 0) {
      finish(p);
    } else if (kind == 1 && !p.pending.empty()) {
      // Wait-die / timeout style cancellation: the transaction keeps its
      // locks and stays registered, but waits on one key fewer.
      table.CancelRequest(p.txn->id(), PageRef{0, p.pending.front().first});
    } else if (schedule == Schedule::kPrepareUpgrades && kind == 2 &&
               p.pending.empty() && !p.prepared) {
      // Prepare: upgrade every shared lock at once, without waiting for
      // the earlier upgrades - several requests pending together.
      p.prepared = true;
      const TxnId id = p.txn->id();
      std::vector<int> pages;
      for (const auto& [page, mode] : p.requested) pages.push_back(page);
      for (int page : pages) {
        if (p.txn->id() != id) break;  // aborted as an earlier victim
        request(p, page, LockMode::kExclusive);
      }
    } else if (p.pending.empty() && !p.prepared) {
      int page = static_cast<int>(rng.UniformInt(0, kPages - 1));
      auto it = p.requested.find(page);
      LockMode mode = schedule != Schedule::kPrepareUpgrades &&
                              rng.Bernoulli(0.35)
                          ? LockMode::kExclusive
                          : LockMode::kShared;
      if (it == p.requested.end()) {
        request(p, page, mode);
      } else if (schedule != Schedule::kPrepareUpgrades &&
                 it->second == LockMode::kShared &&
                 table.HoldsLock(p.txn->id(), PageRef{0, page})) {
        request(p, page, LockMode::kExclusive);  // shared -> exclusive
      }
    }
  }
  for (Player& p : players) release(p, true);
  EXPECT_EQ(table.num_locked_pages(), 0u);
  EXPECT_EQ(table.num_waiting_requests(), 0u);
  EXPECT_TRUE(table.WaitsForEdges().empty());
  // The schedule must reach the cases it is meant to cover, or the
  // comparison proves little.
  EXPECT_GT(cycles_, 0) << searches_ << " searches";
  EXPECT_GT(queued_upgrades, 0);
  if (schedule == Schedule::kPrepareUpgrades) {
    EXPECT_GT(multi_pending, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, LockTableSearchFuzz,
    ::testing::Combine(::testing::Values(Schedule::kUpgrades,
                                         Schedule::kQueueJump,
                                         Schedule::kPrepareUpgrades),
                       ::testing::Values(1u, 2u, 3u, 5u, 8u)),
    [](const auto& info) {
      return ScheduleName(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param));
    });

// --- Waits-for graph vs brute-force oracle -----------------------------------

// Brute force: does any cycle exist? (DFS from every node with a recursion
// stack, straightforward and obviously correct for small graphs.)
bool BruteForceHasCycle(
    const std::map<TxnId, std::vector<TxnId>>& adj) {
  std::set<TxnId> nodes;
  for (auto& [a, outs] : adj) {
    nodes.insert(a);
    for (TxnId b : outs) nodes.insert(b);
  }
  std::map<TxnId, int> color;  // 0 white, 1 gray, 2 black
  std::function<bool(TxnId)> dfs = [&](TxnId u) {
    color[u] = 1;
    auto it = adj.find(u);
    if (it != adj.end()) {
      for (TxnId v : it->second) {
        if (color[v] == 1) return true;
        if (color[v] == 0 && dfs(v)) return true;
      }
    }
    color[u] = 2;
    return false;
  };
  for (TxnId n : nodes) {
    if (color[n] == 0 && dfs(n)) return true;
  }
  return false;
}

class WfgFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WfgFuzz, ResolveAllDeadlocksAgreesWithOracleAndTerminates) {
  sim::RandomStream rng(GetParam(), 1);
  for (int round = 0; round < 40; ++round) {
    int n = static_cast<int>(rng.UniformInt(2, 12));
    int edges = static_cast<int>(rng.UniformInt(0, 3 * n));
    WaitsForGraph g;
    std::map<TxnId, std::vector<TxnId>> adj;
    for (int e = 0; e < edges; ++e) {
      TxnId a = static_cast<TxnId>(rng.UniformInt(1, n));
      TxnId b = static_cast<TxnId>(rng.UniformInt(1, n));
      if (a == b) continue;
      g.AddEdge(WaitEdge{a, Timestamp{static_cast<double>(a), a}, b,
                         Timestamp{static_cast<double>(b), b}});
      adj[a].push_back(b);
    }
    bool oracle = BruteForceHasCycle(adj);
    auto victims = g.ResolveAllDeadlocks();
    EXPECT_EQ(!victims.empty(), oracle) << "seed " << GetParam() << " round "
                                        << round;
    // After resolution the remaining graph must be acyclic: removing the
    // victims from the oracle graph kills every cycle.
    for (TxnId v : victims) {
      adj.erase(v);
      for (auto& [a, outs] : adj) {
        outs.erase(std::remove(outs.begin(), outs.end(), v), outs.end());
      }
    }
    EXPECT_FALSE(BruteForceHasCycle(adj));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WfgFuzz,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// --- Processor-sharing CPU conservation --------------------------------------

sim::Process Track(sim::Simulation& sim, resource::CpuJob job, double* when) {
  co_await job;
  *when = sim.Now();
}

class CpuFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CpuFuzz, WorkIsConservedUnderRandomArrivals) {
  sim::Simulation sim;
  resource::Cpu cpu(&sim, 1.0);
  sim::RandomStream rng(GetParam(), 2);

  const int kJobs = 60;
  double total_demand = 0.0;
  std::vector<double> done(kJobs, -1);
  std::vector<double> demand(kJobs);
  double t = 0;
  for (int i = 0; i < kJobs; ++i) {
    t += rng.Exponential(0.05);
    double d = 0.001 + rng.Exponential(0.08);
    bool message = rng.Bernoulli(0.2);
    demand[static_cast<std::size_t>(i)] = d;
    total_demand += d;
    sim.At(t, [&, i, d, message] {
      Track(sim,
            cpu.ExecuteSeconds(d, message ? resource::CpuJobClass::kMessage
                                          : resource::CpuJobClass::kUser),
            &done[static_cast<std::size_t>(i)]);
    });
  }
  sim.Run();
  // Every job completed.
  double last = 0;
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_GE(done[static_cast<std::size_t>(i)], 0.0) << "job " << i;
    last = std::max(last, done[static_cast<std::size_t>(i)]);
  }
  // Work conservation: the CPU is never idle while work exists, so the last
  // completion is at most (first arrival + total demand) and at least
  // total demand spread over the busy period.
  EXPECT_LE(last, t + total_demand + 1e-9);
  // Utilization x elapsed == total demand (the busy integral).
  EXPECT_NEAR(cpu.Utilization() * sim.Now(), total_demand, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuFuzz,
                         ::testing::Values(3u, 14u, 159u, 2653u));

}  // namespace
}  // namespace ccsim
