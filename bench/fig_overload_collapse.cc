// Overload extension: open-system (Poisson-arrival) behavior through and
// past the capacity knee on the 8-node Experiment 1 machine. Not a paper
// figure — the paper's closed terminal model is self-limiting (a terminal
// cannot submit its next transaction until the previous one finishes), so
// it can thrash but never diverge. With open arrivals the knee is a cliff:
// past lambda* the backlog grows without bound, the unbounded
// multiprogramming level thrashes the lock manager, and response times blow
// through the deadline — *goodput* (commits that met their deadline)
// collapses to zero while raw throughput merely degrades to a thrashing
// trickle. The second series bounds concurrency with shed-newest admission
// control, which converts the collapse into a plateau: a fixed fraction of
// arrivals is shed at the door and the admitted remainder still commits
// inside its deadline, holding goodput at the machine's peak.
//
// The tier-1 test Determinism.BenchSmokePointsMatchCommittedPins pins the
// deadline goodput of the lambda = 15 2PL point of the admission series at
// the CCSIM_QUICK windows.

#include "bench_common.h"

CCSIM_BENCH_FIGURE(fig_overload_collapse) {
  using namespace ccsim;
  using namespace ccsim::bench;
  experiments::PrintFigureHeader(
      std::cout, "Overload extension",
      "throughput vs deadline goodput under open Poisson arrivals, 8 nodes, "
      "30 s deadline, with and without shed-newest admission control",
      "past the ~7.5 tx/s capacity knee the uncontrolled system's goodput "
      "collapses to zero while throughput degrades to a thrashing trickle; "
      "bounding concurrency at the door turns the collapse into a plateau "
      "at peak goodput");
  PrintRunScaleNote();

  std::vector<double> rates = experiments::OverloadArrivalRates();
  std::vector<config::CcAlgorithm> algorithms{
      config::CcAlgorithm::kTwoPhaseLocking, config::CcAlgorithm::kWoundWait,
      config::CcAlgorithm::kOptimistic};

  ResultCache cache;
  auto shed = experiments::RunGrid(
      cache, algorithms, rates, [](config::CcAlgorithm alg, double lambda) {
        return experiments::OverloadConfig(alg, lambda, /*admission=*/true);
      });
  auto open = experiments::RunGrid(
      cache, algorithms, rates, [](config::CcAlgorithm alg, double lambda) {
        return experiments::OverloadConfig(alg, lambda, /*admission=*/false);
      });

  ReportSeries("fig_overload_throughput",
      "raw throughput (commits/s) vs arrival rate, no admission control",
      "lambda", rates, algorithms, [&](config::CcAlgorithm alg, double x) {
        return At(open, alg, x).throughput;
      });
  ReportSeries("fig_overload_goodput",
      "deadline goodput (in-deadline commits/s) vs arrival rate, "
      "no admission control",
      "lambda", rates, algorithms, [&](config::CcAlgorithm alg, double x) {
        return At(open, alg, x).goodput_deadline;
      });
  ReportSeries("fig_overload_deadline_miss",
      "deadline misses per offered transaction, no admission control",
      "lambda", rates, algorithms, [&](config::CcAlgorithm alg, double x) {
        const auto& r = At(open, alg, x);
        return r.txns_offered > 0
                   ? static_cast<double>(r.txns_deadline_missed) /
                         static_cast<double>(r.txns_offered)
                   : 0.0;
      });
  ReportSeries("fig_overload_goodput_shed",
      "deadline goodput (in-deadline commits/s) vs arrival rate, "
      "shed-newest admission (32 in flight, queue 16)",
      "lambda", rates, algorithms, [&](config::CcAlgorithm alg, double x) {
        return At(shed, alg, x).goodput_deadline;
      });
  ReportSeries("fig_overload_shed_rate",
      "shed arrivals per offered transaction, shed-newest admission",
      "lambda", rates, algorithms, [&](config::CcAlgorithm alg, double x) {
        const auto& r = At(shed, alg, x);
        return r.txns_offered > 0
                   ? static_cast<double>(r.txns_shed) /
                         static_cast<double>(r.txns_offered)
                   : 0.0;
      });
  ReportSeries("fig_overload_queue_depth",
      "mean admission-queue depth, shed-newest admission",
      "lambda", rates, algorithms, [&](config::CcAlgorithm alg, double x) {
        return At(shed, alg, x).admission_queue_mean;
      });
  return 0;
}
