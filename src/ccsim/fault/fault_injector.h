#ifndef CCSIM_FAULT_FAULT_INJECTOR_H_
#define CCSIM_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "ccsim/common/types.h"
#include "ccsim/net/network.h"
#include "ccsim/sim/process.h"
#include "ccsim/sim/random.h"

namespace ccsim::engine {
class System;
}  // namespace ccsim::engine

namespace ccsim::fault {

/// Deterministic fault generator (DESIGN.md decision #9). The injector owns
/// the *schedule* - when nodes crash and recover, which message
/// transmissions drop, which disk accesses hit a transient error - drawn
/// from dedicated named RNG streams so that the same master seed and the
/// same FaultParams replay the same fault history regardless of what the
/// rest of the model does with its own streams. The *effects* (draining a
/// crashed node, presuming acks, ...) belong to the engine: the crash cycle
/// calls System::CrashNode and System::RecoverNode.
///
/// With all fault rates zero a System never constructs an injector, no
/// stream is seeded, and no event is scheduled: the simulation is
/// event-for-event the paper's failure-free machine.
class FaultInjector {
 public:
  /// Draws from the system's master seed, FaultParams and node count.
  explicit FaultInjector(engine::System* system);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Spawns the per-node crash/recovery cycles (no-op when mttf == 0).
  /// The host node (node 0) never fails - see FaultParams.
  void Start();

  /// Per-transmission-attempt drop decision for the network. The Snoop's
  /// deadlock-detection round trip (kSnoopQuery/Reply/Handoff) is exempt:
  /// it is modeled as a latch over all nodes with no retry path, so a
  /// dropped reply would wedge global detection forever; treat it as
  /// control-plane traffic on a reliable channel.
  bool ShouldDropMessage(NodeId from, NodeId to, net::MsgTag tag);

  /// Extra disk busy seconds for the access now entering service (0 almost
  /// always; disk_error_delay_ms with probability disk_error_prob).
  double DiskErrorDelay();

  /// Diagnostic dump section: per-stream RNG positions and fault counters,
  /// so a divergent fault replay can be localized to a stream.
  void DumpState(std::FILE* out) const;

  /// Crash-cycle process frames live in the simulation's arena (process.h).
  sim::Arena* process_arena();

 private:
  sim::Process CrashCycle(NodeId node);

  engine::System& system_;
  bool started_ = false;
  std::vector<std::unique_ptr<sim::RandomStream>> crash_rngs_;  // per node
  sim::RandomStream drop_rng_;
  sim::RandomStream disk_rng_;
  std::uint64_t crashes_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t disk_errors_ = 0;
};

}  // namespace ccsim::fault

#endif  // CCSIM_FAULT_FAULT_INJECTOR_H_
