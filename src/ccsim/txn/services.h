#ifndef CCSIM_TXN_SERVICES_H_
#define CCSIM_TXN_SERVICES_H_

#include <functional>
#include <memory>

#include "ccsim/cc/cc_manager.h"
#include "ccsim/common/types.h"
#include "ccsim/config/params.h"
#include "ccsim/net/network.h"
#include "ccsim/resource/cpu.h"
#include "ccsim/resource/disk.h"
#include "ccsim/sim/completion.h"
#include "ccsim/sim/random.h"
#include "ccsim/sim/simulation.h"
#include "ccsim/txn/transaction.h"

namespace ccsim::txn {

/// Everything the transaction-management layer (coordinator + cohorts) needs
/// from the surrounding engine, expressed as narrow accessors so the layer
/// stays independently testable against a miniature engine.
struct Services {
  sim::Simulation* sim = nullptr;
  net::Network* network = nullptr;
  const config::SystemConfig* config = nullptr;

  /// Concurrency control manager at a node.
  std::function<cc::CcManager*(NodeId)> cc_at;
  /// CPU of a node.
  std::function<resource::Cpu*(NodeId)> cpu_at;
  /// A disk access on a random disk of a node, queued when awaited.
  std::function<resource::DiskJob(NodeId, resource::DiskOp)> disk_access;
  /// Per-node variate stream (page-processing instruction counts).
  std::function<sim::RandomStream*(NodeId)> node_rng;

  /// Whether a node is currently up. Null = no fault layer, always up.
  /// The protocol uses it to presume acknowledgements from crashed nodes
  /// instead of waiting for messages that can never arrive.
  std::function<bool(NodeId)> node_up;

  /// Metrics callback (coordinator side, fired at the host). Commit and
  /// abort counts are CoordinatorService's own counters.
  std::function<void(Transaction&)> on_commit;
  /// Current restart delay: one average observed response time (Sec 3.3).
  std::function<double()> restart_delay;
  /// When set (WorkloadParams::fake_restarts), draws a fresh access set for
  /// a restarting transaction (same terminal, class, and relation).
  std::function<workload::TransactionSpec(const workload::TransactionSpec&)>
      regenerate_spec;
};

}  // namespace ccsim::txn

#endif  // CCSIM_TXN_SERVICES_H_
