#ifndef CCSIM_ENGINE_SYSTEM_H_
#define CCSIM_ENGINE_SYSTEM_H_

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ccsim/cc/cc_manager.h"
#include "ccsim/cc/snoop.h"
#include "ccsim/config/params.h"
#include "ccsim/db/catalog.h"
#include "ccsim/engine/node.h"
#include "ccsim/engine/run.h"
#include "ccsim/engine/serializability.h"
#include "ccsim/fault/fault_injector.h"
#include "ccsim/net/network.h"
#include "ccsim/sim/random.h"
#include "ccsim/sim/simulation.h"
#include "ccsim/stats/batch_means.h"
#include "ccsim/stats/latency_histogram.h"
#include "ccsim/stats/tally.h"
#include "ccsim/stats/time_weighted.h"
#include "ccsim/txn/coordinator.h"
#include "ccsim/txn/cohort.h"
#include "ccsim/workload/admission.h"
#include "ccsim/workload/source.h"

namespace ccsim::engine {

/// The assembled database machine: one host node plus NumProcNodes
/// processing nodes, the network, the per-node CC managers, the transaction
/// management layer, the workload source, and the metrics plumbing
/// (Fig. 1 of the paper). Also implements cc::CcContext.
class System final : public cc::CcContext {
 public:
  explicit System(const config::SystemConfig& config);
  ~System() override = default;
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Starts the source (and the Snoop under 2PL). Called by Run(); exposed
  /// separately for tests that drive the simulation manually.
  void Start();

  /// Runs warmup + measurement and extracts the metrics.
  RunResult Run();

  // --- cc::CcContext ------------------------------------------------------
  sim::Simulation& simulation() override { return sim_; }
  const config::SystemConfig& config() const override { return config_; }
  void RequestAbort(const txn::TxnPtr& txn, int attempt, NodeId from_node,
                    txn::AbortReason reason) override;
  void AuditRead(txn::Transaction& t, const PageRef& page) override;
  void AuditInstallWrite(txn::Transaction& t, const PageRef& page) override;
  void AuditSkippedWrite(txn::Transaction& t, const PageRef& page) override;

  // --- accessors (tests, examples) ----------------------------------------
  sim::Simulation& sim() { return sim_; }
  net::Network& network() { return *network_; }
  txn::CoordinatorService& coordinator() { return *coordinator_; }
  /// The admission controller; null unless OverloadParams::max_in_flight.
  workload::AdmissionController* admission() { return admission_.get(); }
  cc::CcManager* cc_at(NodeId id) {
    return nodes_[static_cast<std::size_t>(id)].cc.get();
  }
  resource::ResourceManager& resources(NodeId id) {
    return *nodes_[static_cast<std::size_t>(id)].resources;
  }
  /// Per-node variate stream (page-processing instruction counts).
  sim::RandomStream& node_rng(NodeId id) {
    return *node_rngs_[static_cast<std::size_t>(id)];
  }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const std::vector<CommittedTxn>& commit_log() const { return commit_log_; }
  const cc::Snoop* snoop() const { return snoop_.get(); }

  /// Current restart delay (one average observed response time).
  double RestartDelay() const;
  /// Records a committed transaction's response time, its phases and (with
  /// the audit on) its commit-log entry; the coordinator calls it.
  void RecordCommit(txn::Transaction& t);
  /// A fresh access set for a restarting transaction (same terminal, class
  /// and relation); only under WorkloadParams::fake_restarts.
  workload::TransactionSpec RegenerateSpec(
      const workload::TransactionSpec& old_spec);

  // --- fault layer --------------------------------------------------------
  /// True while `id` is up (always true without a fault layer; the host is
  /// always up).
  bool NodeUp(NodeId id) const {
    return nodes_[static_cast<std::size_t>(id)].up;
  }
  /// Crash effects: mark the node down, track availability, and have the
  /// coordinator drain every transaction with a cohort there. Called by the
  /// FaultInjector's schedule; exposed for targeted protocol tests.
  void CrashNode(NodeId id);
  /// The node returns empty (its in-flight state died with it); restarting
  /// transactions will find it organically.
  void RecoverNode(NodeId id);

 private:
  void ResetStatsAtWarmup();
  RunResult ExtractResult(double measured_seconds, double wall_seconds);

  config::SystemConfig config_;
  sim::Simulation sim_;
  db::Catalog catalog_;
  std::vector<Node> nodes_;  // index == NodeId; 0 is the host
  std::vector<std::unique_ptr<sim::RandomStream>> node_rngs_;
  std::unique_ptr<sim::RandomStream> restart_rng_;  // fake-restart draws
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<txn::CohortService> cohort_service_;
  std::unique_ptr<txn::CoordinatorService> coordinator_;
  std::unique_ptr<workload::Source> source_;
  std::unique_ptr<workload::AdmissionController> admission_;
  std::unique_ptr<cc::Snoop> snoop_;
  std::unique_ptr<fault::FaultInjector> fault_injector_;
  bool started_ = false;

  // Metrics.
  stats::Tally rt_alltime_;   // never reset; drives the restart delay
  stats::Tally rt_measured_;  // reset at warmup
  stats::BatchMeans rt_batches_;
  stats::LatencyHistogram rt_histogram_;
  // Per-phase response-time decomposition (see RunResult); reset at warmup.
  stats::Tally phase_queue_;
  stats::Tally phase_exec_;
  stats::Tally phase_commit_wait_;
  stats::Tally phase_restart_wasted_;
  // Commit and abort counts are the coordinator's minus these snapshots.
  std::uint64_t commits_at_reset_ = 0;
  std::uint64_t aborts_at_reset_ = 0;
  std::array<std::uint64_t, txn::kNumAbortReasons> aborts_by_reason_at_reset_{};
  std::uint64_t messages_at_reset_ = 0;
  // Fault metrics (inert without a fault layer).
  stats::TimeWeighted up_fraction_{1.0};  // fraction of proc nodes up
  int nodes_down_ = 0;
  std::uint64_t node_crashes_measured_ = 0;
  std::uint64_t dropped_at_reset_ = 0;
  std::uint64_t lost_at_reset_ = 0;
  std::uint64_t forced_at_reset_ = 0;
  // Overload metrics (inert without OverloadParams).
  std::uint64_t commits_in_deadline_measured_ = 0;
  std::uint64_t abandoned_deadline_at_reset_ = 0;
  std::uint64_t abandoned_retry_at_reset_ = 0;
  // Network-model metrics (inert without NetParams).
  std::uint64_t net_batches_at_reset_ = 0;
  std::uint64_t net_batched_at_reset_ = 0;
  std::uint64_t net_local_fast_at_reset_ = 0;
  std::uint64_t net_rdma_at_reset_ = 0;
  double net_bytes_at_reset_ = 0.0;
  double net_link_wait_at_reset_ = 0.0;
  std::uint64_t net_link_msgs_at_reset_ = 0;

  // Shadow version store + commit log for the serializability audit.
  struct ShadowEntry {
    TxnId writer = 0;
    std::uint64_t version = 0;
  };
  std::unordered_map<std::uint64_t, ShadowEntry> shadow_;
  std::vector<CommittedTxn> commit_log_;
};

}  // namespace ccsim::engine

#endif  // CCSIM_ENGINE_SYSTEM_H_
