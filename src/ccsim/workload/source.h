#ifndef CCSIM_WORKLOAD_SOURCE_H_
#define CCSIM_WORKLOAD_SOURCE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ccsim/config/params.h"
#include "ccsim/db/catalog.h"
#include "ccsim/sim/completion.h"
#include "ccsim/sim/process.h"
#include "ccsim/sim/random.h"
#include "ccsim/sim/simulation.h"
#include "ccsim/stats/time_weighted.h"
#include "ccsim/workload/access_generator.h"
#include "ccsim/workload/admission.h"
#include "ccsim/workload/spec.h"

namespace ccsim::workload {

/// The source component of the host node (Sec 3.2), in one of two shapes.
///
/// Closed (the paper's model, the default): a population of terminals. Each
/// terminal thinks for an exponential period, submits a transaction, and
/// waits for it to complete successfully before thinking again.
///
/// Open (OverloadParams::open_system()): transactions arrive in a Poisson
/// stream of rate OverloadParams::arrival_rate_per_sec, independent of how
/// many are already in the system, so offered load is a free parameter and
/// the system can be driven through and past its capacity knee - the regime
/// where admission control and deadlines matter. Footprint discipline
/// (after DESP-C++): the arrival stream is ONE aggregated coroutine drawing
/// exponential inter-arrival gaps from a dedicated stream - the rate is a
/// number, not 10k think-timer coroutine frames. A small arena-allocated
/// tracker frame per *in-flight* transaction observes completion for the
/// active-count statistic; that count is bounded by the admission cap (or
/// by what the engine can hold), not by the arrival rate.
class Source {
 public:
  /// Called to hand a transaction to the transaction manager (or, in the
  /// open model with admission control, to AdmissionController::Offer).
  /// Returns a completion that fires when the transaction has left the
  /// system: committed after any number of abort/restart cycles, or (open
  /// model only) abandoned or shed.
  using SubmitFn = AdmissionController::SubmitFn;

  /// `admission` is optional and read only by the open model: when given
  /// and the policy is kBlock, the arrival process backpressures on it
  /// instead of offering into a full system.
  Source(sim::Simulation* sim, const config::SystemConfig* config,
         const db::Catalog* catalog, SubmitFn submit,
         AdmissionController* admission = nullptr);

  /// Spawns one process per terminal (closed) or the single arrival
  /// process (open). Call once, before running.
  void Start();

  /// Transactions submitted so far. In the open model every arrival counts;
  /// admission decides whether one is admitted or shed.
  std::uint64_t transactions_submitted() const { return submitted_; }

  /// Time-weighted mean number of transactions in the system (submitted,
  /// not yet finished; in the open model this includes any admission
  /// queue) - the measured multiprogramming level, as opposed to the
  /// configured NumTerminals. Purely observational: the tracker samples
  /// sim_->Now() at submit/complete transitions that already exist, so it
  /// schedules no events and cannot perturb determinism.
  double mean_active_txns(sim::SimTime now) const {
    return active_txns_.Mean(now);
  }

  /// Warmup deletion: restart the active-txn integration at `now`.
  void ResetStats(sim::SimTime now) { active_txns_.Reset(now); }

  const AccessGenerator& generator() const { return generator_; }

  /// Process frames live in the simulation's arena (process.h).
  sim::Arena* process_arena() { return sim_->arena(); }

 private:
  sim::Process TerminalProcess(int terminal);
  sim::Process ArrivalProcess();
  sim::Process TrackTransaction(
      std::shared_ptr<sim::Completion<sim::Unit>> done);

  sim::Simulation* sim_;
  const config::SystemConfig* config_;
  AccessGenerator generator_;
  SubmitFn submit_;
  AdmissionController* admission_;
  /// Closed: one stream per terminal, indexed by terminal. Open: the
  /// arrival-gap stream, then the access-set stream.
  std::vector<std::unique_ptr<sim::RandomStream>> rngs_;
  std::uint64_t submitted_ = 0;
  stats::TimeWeighted active_txns_;
  bool started_ = false;
};

}  // namespace ccsim::workload

#endif  // CCSIM_WORKLOAD_SOURCE_H_
