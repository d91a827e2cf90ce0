// Megascale extension (not in the paper): 256- and 1024-node machines with
// millions of pages, an order of magnitude past the paper's figures. The
// workload is a scaleup of Experiment 1 — per-transaction parallelism stays
// at 8 cohorts while relations and terminals grow with the machine — so the
// quantities under test are the *kernel's* scaling limits, not the paper's
// algorithm ranking: events/sec of simulated machine and peak-RSS
// memory-per-node. Both are printed per machine size; peak RSS is sampled
// after each size's sweep (run sizes ascending, cold cache) so the delta is
// attributable. tools/check_bench_regression.py gates a 256-node smoke run
// of this figure (CCSIM_MEGASCALE_SMOKE=1) on both metrics.

#include <sys/resource.h>

#include <cstdlib>
#include <fstream>

#include "bench_common.h"

namespace {

// Peak RSS of this process in MB (Linux getrusage reports KB). Monotone
// non-decreasing over process lifetime, hence the ascending-size run order.
double PeakRssMb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool EnvSet(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

}  // namespace

CCSIM_BENCH_FIGURE(ext_megascale) {
  using namespace ccsim;
  using namespace ccsim::bench;
  experiments::PrintFigureHeader(
      std::cout, "Megascale extension",
      "events/sec and peak-RSS memory-per-node on 256/1024-node machines "
      "(millions of pages), think 8 s",
      "sim rate stays flat per node while memory-per-node bounds the largest "
      "machine one process can hold");
  PrintRunScaleNote();
  std::cout << "Peak-RSS numbers are meaningful for cold-cache runs only "
               "(cached points skip the simulation).\n\n";

  // PR CI runs the 256-node smoke (one algorithm); nightly runs the full
  // grid cold. CCSIM_QUICK alone also stops at 256 nodes so local smoke
  // invocations stay light.
  std::vector<int> sizes = experiments::MegascaleNodeCounts();
  std::vector<config::CcAlgorithm> algorithms{
      config::CcAlgorithm::kTwoPhaseLocking, config::CcAlgorithm::kNoDc};
  const bool smoke = EnvSet("CCSIM_MEGASCALE_SMOKE");
  if (smoke || EnvSet("CCSIM_QUICK")) sizes = {256};
  if (smoke) algorithms = {config::CcAlgorithm::kTwoPhaseLocking};

  ResultCache cache;
  std::vector<experiments::Point> points;
  struct SizeReport {
    int nodes;
    double peak_rss_mb;
  };
  std::vector<SizeReport> rss;
  for (int nodes : sizes) {
    auto sweep = experiments::RunGrid(
        cache, algorithms, {static_cast<double>(nodes)},
        [](config::CcAlgorithm alg, double n) {
          return experiments::MegascaleConfig(static_cast<int>(n), alg,
                                              /*think_time=*/8.0);
        });
    points.insert(points.end(), sweep.begin(), sweep.end());
    rss.push_back({nodes, PeakRssMb()});
  }

  std::vector<double> xs(sizes.begin(), sizes.end());
  ReportSeries("ext_megascale_throughput",
      "committed transactions/sec vs machine size",
      "nodes", xs, algorithms, [&](config::CcAlgorithm alg, double x) {
        return At(points, alg, x).throughput;
      });
  ReportSeries("ext_megascale_events_per_sec",
      "simulation events/sec of wall time (from the computing run)",
      "nodes", xs, algorithms, [&](config::CcAlgorithm alg, double x) {
        const auto& r = At(points, alg, x);
        return r.wall_seconds > 0.0
                   ? static_cast<double>(r.events) / r.wall_seconds
                   : 0.0;
      },
      /*precision=*/0);
  ReportSeries("ext_megascale_rt_p99",
      "p99 response time (s) vs machine size",
      "nodes", xs, algorithms, [&](config::CcAlgorithm alg, double x) {
        return At(points, alg, x).rt_p99;
      });

  // Memory accounting, one row per machine size (cumulative across the
  // ascending sweep; the per-size delta is what each machine costs).
  const char* env = std::getenv("CCSIM_CSV_DIR");
  std::string dir = env != nullptr && env[0] != '\0' ? env : "bench_results";
  std::ofstream csv(dir + "/ext_megascale_memory.csv");
  csv << "nodes,peak_rss_mb,mb_per_node\n";
  std::cout << "Peak RSS after each machine size (ascending, cumulative):\n";
  for (const auto& s : rss) {
    double per_node = s.peak_rss_mb / s.nodes;
    std::printf("  nodes=%-5d peak_rss_mb=%-9.1f mb_per_node=%.3f\n",
                s.nodes, s.peak_rss_mb, per_node);
    csv << s.nodes << ',' << s.peak_rss_mb << ',' << per_node << '\n';
  }
  std::cout << "[csv] " << dir << "/ext_megascale_memory.csv\n";
  return 0;
}
