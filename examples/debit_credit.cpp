// Debit-Credit example: the paper's introduction cites the Tandem Non-Stop
// SQL result that a Debit-Credit workload scales linearly from 2 to 32
// processors using inter-transaction parallelism alone. This example builds
// a Debit-Credit-flavored workload (small transactions touching a single
// partition, i.e. degree-1 placement and 1-page-per-partition accesses) and
// checks near-linear 2PL throughput scaling with machine size on ccsim: it
// exits non-zero unless 8 nodes reach kMinScaleup8 times the 1-node
// throughput. The result is deterministic (fixed seed), so this is a check
// of the model, not of the host.
//
//   ./build/examples/debit_credit

#include <cstdio>

#include "ccsim/config/params.h"
#include "ccsim/engine/run.h"

namespace {

// "Near-linear" at 8 nodes: within 1/16 of perfect scaleup.
constexpr double kMinScaleup8 = 7.5;

ccsim::config::SystemConfig DebitCreditConfig(int nodes) {
  using namespace ccsim::config;
  SystemConfig cfg = PaperBaseConfig();
  cfg.algorithm = CcAlgorithm::kTwoPhaseLocking;
  cfg.machine.num_proc_nodes = nodes;
  // One "account file" per relation, declustered 1-way: each transaction is
  // a short, single-node debit/credit against its terminal's branch.
  cfg.placement.degree = 1;
  cfg.database.num_relations = nodes;  // one branch group per node
  cfg.database.partitions_per_relation = 1;
  cfg.database.pages_per_file = 2000;
  cfg.workload.num_terminals = 16 * nodes;  // scale offered load with size
  cfg.workload.think_time_sec = 1.0;
  auto& cls = cfg.workload.classes[0];
  cls.pages_per_partition_avg = 2.0;  // account + branch page
  cls.write_prob = 1.0;               // debit/credit updates what it reads
  cls.inst_per_page = 8000.0;
  cfg.run.warmup_sec = 100;
  cfg.run.measure_sec = 600;
  return cfg;
}

}  // namespace

int main() {
  using namespace ccsim;
  std::printf(
      "Debit-Credit scaling on ccsim (2PL, inter-transaction parallelism "
      "only)\n\n");
  std::printf("%8s %14s %14s %12s %12s\n", "nodes", "txns/sec", "scaleup",
              "response(s)", "abort ratio");

  double base = 0.0;
  double scaleup = 0.0;
  for (int nodes : {1, 2, 4, 8}) {
    engine::RunResult r = engine::RunSimulation(DebitCreditConfig(nodes));
    if (nodes == 1) base = r.throughput;
    scaleup = base > 0 ? r.throughput / base : 0.0;
    std::printf("%8d %14.2f %13.2fx %12.4f %12.4f\n", nodes, r.throughput,
                scaleup, r.mean_response_time, r.abort_ratio);
  }
  // The workload partitions perfectly and transactions are short, so
  // throughput should scale near-linearly with nodes (cf. [Tand88]).
  const bool linear = scaleup >= kMinScaleup8;
  std::printf("\n8-node scaleup %.2fx %s the near-linear bar of %.1fx.\n",
              scaleup, linear ? "meets" : "MISSES", kMinScaleup8);
  return linear ? 0 : 1;
}
