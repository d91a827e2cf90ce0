// Partitioning advisor: Section 4.3-4.4 of the paper show that the best
// degree of declustering depends on system load and message costs. This
// example sweeps the partitioning degree for a workload you describe on the
// command line and reports the degree that minimizes mean response time.
//
// Without arguments it checks that claim instead: it sweeps a light corner
// (think time 8 s, 1,000-instruction messages) and a heavy one (think time
// 0, 4,000-instruction messages), and exits non-zero unless the heavy
// corner's best degree is below the light corner's.
//
//   ./build/examples/partitioning_advisor [think_time] [inst_per_msg]
//   e.g. ./build/examples/partitioning_advisor 8 4000

#include <cstdio>
#include <cstdlib>

#include "ccsim/config/params.h"
#include "ccsim/engine/run.h"

namespace {

// Sweeps the declustering degree for one workload, prints the table and the
// recommendation, and returns the degree with the lowest mean response time.
int AdviseDegree(double think_time, double inst_per_msg) {
  using namespace ccsim;
  std::printf(
      "Partitioning advisor: 8-node machine, 2PL, think time %.1f s, "
      "message cost %.0f instructions\n\n",
      think_time, inst_per_msg);
  std::printf("%8s %14s %14s %14s %12s\n", "degree", "response(s)",
              "txns/sec", "msgs/commit", "blocking(ms)");

  int best_degree = 1;
  double best_rt = 0.0;
  for (int degree : {1, 2, 4, 8}) {
    config::SystemConfig cfg = config::PaperBaseConfig();
    cfg.algorithm = config::CcAlgorithm::kTwoPhaseLocking;
    cfg.placement.degree = degree;
    cfg.workload.think_time_sec = think_time;
    cfg.costs.inst_per_msg = inst_per_msg;
    cfg.run.warmup_sec = 100;
    cfg.run.measure_sec = 600;

    engine::RunResult r = engine::RunSimulation(cfg);
    std::printf("%8d %14.3f %14.3f %14.1f %12.2f\n", degree,
                r.mean_response_time, r.throughput, r.messages_per_commit,
                r.mean_blocking_time * 1000.0);
    if (best_rt == 0.0 || r.mean_response_time < best_rt) {
      best_rt = r.mean_response_time;
      best_degree = degree;
    }
  }

  std::printf(
      "\nRecommendation: declustering degree %d (mean response time %.3f "
      "s).\nHigh loads and expensive messages push the best degree down; "
      "light loads push it up (Secs 4.3-4.4 of the paper).\n",
      best_degree, best_rt);
  return best_degree;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    AdviseDegree(std::atof(argv[1]), argc > 2 ? std::atof(argv[2]) : 1000.0);
    return 0;
  }
  const int light = AdviseDegree(8.0, 1000.0);
  std::printf("\n");
  const int heavy = AdviseDegree(0.0, 4000.0);
  const bool holds = heavy < light;
  std::printf(
      "\nBest degree: %d under heavy load with expensive messages, %d under "
      "light load\nwith cheap ones. %s\n",
      heavy, light,
      holds ? "Load and message cost push the best degree down, as claimed."
            : "MISSES: the heavy corner's best degree is not below the "
              "light corner's.");
  return holds ? 0 : 1;
}
