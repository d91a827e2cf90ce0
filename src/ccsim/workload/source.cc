#include "ccsim/workload/source.h"

#include <utility>

#include "ccsim/sim/check.h"
#include "ccsim/sim/stream_ids.h"

namespace ccsim::workload {

namespace stream_ids = sim::stream_ids;

Source::Source(sim::Simulation* sim, const config::SystemConfig* config,
               const db::Catalog* catalog, SubmitFn submit,
               AdmissionController* admission)
    : sim_(sim),
      config_(config),
      generator_(&config->workload, catalog),
      submit_(std::move(submit)),
      admission_(admission) {
  const std::uint64_t seed = config_->run.seed;
  if (config_->overload.open_system()) {
    rngs_.push_back(std::make_unique<sim::RandomStream>(
        seed, stream_ids::kOpenArrivalStream));
    rngs_.push_back(std::make_unique<sim::RandomStream>(
        seed, stream_ids::kOpenSpecStream));
    return;
  }
  int n = config_->workload.num_terminals;
  rngs_.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    rngs_.push_back(std::make_unique<sim::RandomStream>(
        seed, stream_ids::kTerminalStreamBase + static_cast<std::uint64_t>(t)));
  }
}

void Source::Start() {
  CCSIM_CHECK_MSG(!started_, "Source started twice");
  started_ = true;
  if (config_->overload.open_system()) {
    ArrivalProcess();
    return;
  }
  for (int t = 0; t < config_->workload.num_terminals; ++t) {
    TerminalProcess(t);
  }
}

sim::Process Source::TerminalProcess(int terminal) {
  auto& rng = *rngs_[static_cast<std::size_t>(terminal)];
  for (;;) {
    co_await sim_->Delay(rng.Exponential(config_->workload.think_time_sec));
    TransactionSpec spec = generator_.Generate(terminal, rng);
    ++submitted_;
    active_txns_.Add(sim_->Now(), 1.0);
    auto done = submit_(std::move(spec));
    co_await sim::Await(std::move(done));
    active_txns_.Add(sim_->Now(), -1.0);
  }
}

sim::Process Source::ArrivalProcess() {
  sim::RandomStream& arrival_rng = *rngs_[0];
  sim::RandomStream& spec_rng = *rngs_[1];
  const double mean_gap = 1.0 / config_->overload.arrival_rate_per_sec;
  const bool block =
      admission_ != nullptr &&
      config_->overload.admission_policy == config::AdmissionPolicy::kBlock;
  const auto num_terminals =
      static_cast<std::uint64_t>(config_->workload.num_terminals);
  for (;;) {
    co_await sim_->Delay(arrival_rng.Exponential(mean_gap));
    while (block && !admission_->HasSpace()) {
      // Backpressure: pause the arrival clock until a slot frees. The
      // while re-checks because WhenSpace wakes every waiter.
      co_await sim::Await(admission_->WhenSpace());
    }
    // Synthetic terminal index: arrivals cycle through the terminal space
    // so the class mix and terminal-group relation mapping keep the exact
    // shape of the closed workload.
    int terminal = static_cast<int>(submitted_ % num_terminals);
    TransactionSpec spec = generator_.Generate(terminal, spec_rng);
    ++submitted_;
    active_txns_.Add(sim_->Now(), 1.0);
    TrackTransaction(submit_(std::move(spec)));
  }
}

/// One arena-allocated frame per in-flight transaction, solely to observe
/// completion for the active-count statistic (there is no terminal loop to
/// do it in an open system).
sim::Process Source::TrackTransaction(
    std::shared_ptr<sim::Completion<sim::Unit>> done) {
  co_await sim::Await(std::move(done));
  active_txns_.Add(sim_->Now(), -1.0);
}

}  // namespace ccsim::workload
