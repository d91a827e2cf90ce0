#ifndef CCSIM_WORKLOAD_ADMISSION_H_
#define CCSIM_WORKLOAD_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "ccsim/config/params.h"
#include "ccsim/sim/completion.h"
#include "ccsim/sim/process.h"
#include "ccsim/sim/simulation.h"
#include "ccsim/stats/time_weighted.h"
#include "ccsim/workload/spec.h"

namespace ccsim::workload {

/// Admission controller between the (open) source and the transaction
/// manager: caps the number of admitted-but-unfinished transactions at
/// OverloadParams::max_in_flight and holds the overflow in a bounded FIFO
/// queue. When an arrival finds the cap reached and the queue full, the
/// configured AdmissionPolicy decides who loses: nobody (kBlock - the
/// source backpressures through WhenSpace()), the arrival (kShedNewest),
/// or the queue head (kShedOldest). Shedding completes the transaction's
/// outer completion immediately without it ever entering the engine - the
/// graceful alternative to letting overload grow the multiprogramming
/// level without bound and collapse goodput (DESIGN decision #13).
///
/// Instantiated only when max_in_flight > 0; the default configuration
/// bypasses this class entirely, keeping the closed-system event stream
/// byte-identical to the pre-overload model.
class AdmissionController {
 public:
  /// Hands an admitted transaction to the transaction manager. Returns a
  /// completion that fires when the transaction leaves the engine
  /// (committed or abandoned).
  using SubmitFn = std::function<std::shared_ptr<sim::Completion<sim::Unit>>(
      TransactionSpec spec)>;

  AdmissionController(sim::Simulation* sim,
                      const config::OverloadParams* params, SubmitFn inner);

  /// Offers a transaction to the system. Returns a completion that fires
  /// when the transaction is finished with the system: committed,
  /// abandoned, or shed. Under kBlock the caller must check HasSpace() /
  /// await WhenSpace() before offering.
  std::shared_ptr<sim::Completion<sim::Unit>> Offer(TransactionSpec spec);

  /// True when an offer would be accepted without shedding (a free
  /// in-flight slot or room in the queue).
  bool HasSpace() const;

  /// Completion that fires when HasSpace() becomes true (immediately if it
  /// already is). Used by the source to implement the kBlock policy.
  std::shared_ptr<sim::Completion<sim::Unit>> WhenSpace();

  std::uint64_t offered() const { return offered_; }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t shed() const { return shed_; }
  int in_flight() const { return in_flight_; }
  int queue_depth() const { return static_cast<int>(queue_.size()); }
  std::uint64_t queue_depth_max() const { return queue_depth_max_; }
  /// Time-weighted mean admission-queue depth over [last reset, now].
  double mean_queue_depth(sim::SimTime now) const {
    return queue_depth_tw_.Mean(now);
  }

  /// Warmup deletion: restart the queue-depth integration and the max-depth
  /// watermark at `now`. Nothing snapshots the offered/admitted/shed
  /// counters, so RunResult reports them over the whole run, warmup
  /// included, while deadline misses count the measurement window only.
  void ResetStats(sim::SimTime now);

  /// Chain-coroutine frames live in the simulation's arena (process.h).
  sim::Arena* process_arena() { return sim_->arena(); }

 private:
  struct Pending {
    TransactionSpec spec;
    std::shared_ptr<sim::Completion<sim::Unit>> outer;
  };

  void Admit(TransactionSpec spec,
             std::shared_ptr<sim::Completion<sim::Unit>> outer);
  void Shed(std::shared_ptr<sim::Completion<sim::Unit>> outer);
  void OnInnerDone();
  sim::Process ChainDone(std::shared_ptr<sim::Completion<sim::Unit>> inner,
                         std::shared_ptr<sim::Completion<sim::Unit>> outer);

  sim::Simulation* sim_;
  const config::OverloadParams* params_;
  SubmitFn inner_;
  std::deque<Pending> queue_;
  std::vector<std::shared_ptr<sim::Completion<sim::Unit>>> space_waiters_;
  int in_flight_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t queue_depth_max_ = 0;
  stats::TimeWeighted queue_depth_tw_;
};

}  // namespace ccsim::workload

#endif  // CCSIM_WORKLOAD_ADMISSION_H_
