// Quickstart: configure the paper's 8-node database machine, run one
// simulation per concurrency control algorithm, print the headline
// metrics, and rank the algorithms by the throughput this run measured.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [think_time_seconds]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "ccsim/config/params.h"
#include "ccsim/engine/run.h"

int main(int argc, char** argv) {
  using namespace ccsim;

  double think_time = argc > 1 ? std::atof(argv[1]) : 8.0;

  std::printf(
      "ccsim quickstart: 8-node shared-nothing database machine, 128 "
      "terminals,\n64-page transactions (25%% updated), think time %.1f s\n\n",
      think_time);
  std::printf("%-6s %12s %14s %12s %10s %10s\n", "alg", "txns/sec",
              "response(s)", "abort/commit", "cpu util", "disk util");

  std::vector<std::pair<config::CcAlgorithm, engine::RunResult>> runs;
  for (config::CcAlgorithm alg : config::kAllAlgorithms) {
    // Start from the paper's Table 4 settings and override what we need.
    config::SystemConfig cfg = config::PaperBaseConfig();
    cfg.algorithm = alg;
    cfg.workload.think_time_sec = think_time;
    cfg.run.warmup_sec = 100;
    cfg.run.measure_sec = 600;

    engine::RunResult r = engine::RunSimulation(cfg);
    std::printf("%-6s %12.3f %11.3f+-%-5.2f %9.3f %10.2f %10.2f\n",
                config::ToString(alg), r.throughput, r.mean_response_time,
                r.rt_ci_half_width, r.abort_ratio, r.proc_cpu_util,
                r.disk_util);
    runs.emplace_back(alg, r);
  }

  // Rank by measured throughput. Neighbours whose 95% response-time
  // intervals overlap are joined with "~": with a fixed terminal population
  // throughput follows response time, so this run cannot order them.
  std::stable_sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
    return a.second.throughput > b.second.throughput;
  });
  std::printf("\nMeasured ranking by throughput (this run):\n  %s",
              config::ToString(runs.front().first));
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const engine::RunResult& a = runs[i - 1].second;
    const engine::RunResult& b = runs[i].second;
    bool overlap = std::abs(a.mean_response_time - b.mean_response_time) <=
                   a.rt_ci_half_width + b.rt_ci_half_width;
    std::printf(" %s %s", overlap ? "~" : ">", config::ToString(runs[i].first));
  }
  std::printf(
      "\n  (~: 95%% response-time intervals overlap)\n"
      "The paper's main result under load, not a prediction for this run:\n"
      "  NO_DC (ideal) > 2PL > BTO > WW > OPT\n");
  return 0;
}
