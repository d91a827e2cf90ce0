#include "ccsim/fault/fault_injector.h"

#include <cinttypes>

#include "ccsim/engine/system.h"
#include "ccsim/sim/check.h"
#include "ccsim/sim/stream_ids.h"

namespace ccsim::fault {

FaultInjector::FaultInjector(engine::System* system)
    : system_(*system),
      drop_rng_(system->config().run.seed, sim::stream_ids::kFaultDropStream),
      disk_rng_(system->config().run.seed, sim::stream_ids::kFaultDiskStream) {
  const config::SystemConfig& cfg = system_.config();
  CCSIM_CHECK(cfg.machine.num_proc_nodes >= 1);
  if (cfg.faults.node_mttf_sec > 0.0) {
    crash_rngs_.reserve(static_cast<std::size_t>(cfg.machine.num_proc_nodes));
    for (NodeId id = 1; id <= cfg.machine.num_proc_nodes; ++id) {
      crash_rngs_.push_back(std::make_unique<sim::RandomStream>(
          cfg.run.seed, sim::stream_ids::kFaultCrashStreamBase +
                            static_cast<std::uint64_t>(id)));
    }
  }
}

void FaultInjector::Start() {
  CCSIM_CHECK_MSG(!started_, "FaultInjector started twice");
  started_ = true;
  const config::SystemConfig& cfg = system_.config();
  if (cfg.faults.node_mttf_sec <= 0.0) return;
  for (NodeId id = 1; id <= cfg.machine.num_proc_nodes; ++id) CrashCycle(id);
}

sim::Arena* FaultInjector::process_arena() { return system_.sim().arena(); }

sim::Process FaultInjector::CrashCycle(NodeId node) {
  sim::RandomStream& rng = *crash_rngs_[static_cast<std::size_t>(node - 1)];
  // Runs for the life of the simulation; the still-suspended frame is
  // reclaimed by the Simulation at teardown like any other process.
  for (;;) {
    co_await system_.sim().Delay(
        rng.Exponential(system_.config().faults.node_mttf_sec));
    ++crashes_;
    system_.CrashNode(node);
    co_await system_.sim().Delay(
        rng.Exponential(system_.config().faults.node_mttr_sec));
    system_.RecoverNode(node);
  }
}

bool FaultInjector::ShouldDropMessage(NodeId from, NodeId to, net::MsgTag tag) {
  (void)from;
  (void)to;
  if (tag == net::MsgTag::kSnoopQuery || tag == net::MsgTag::kSnoopReply ||
      tag == net::MsgTag::kSnoopHandoff) {
    return false;  // control plane; see the header
  }
  if (!drop_rng_.Bernoulli(system_.config().faults.msg_drop_prob)) {
    return false;
  }
  ++drops_;
  return true;
}

double FaultInjector::DiskErrorDelay() {
  const config::FaultParams& params = system_.config().faults;
  if (!disk_rng_.Bernoulli(params.disk_error_prob)) return 0.0;
  ++disk_errors_;
  return params.disk_error_delay_ms / 1000.0;
}

void FaultInjector::DumpState(std::FILE* out) const {
  std::fprintf(out,
               "crashes=%" PRIu64 " drops=%" PRIu64 " disk_errors=%" PRIu64
               "\n",
               crashes_, drops_, disk_errors_);
  std::fprintf(out, "drop stream draws=%" PRIu64 ", disk stream draws=%" PRIu64
                    "\n",
               drop_rng_.draws(), disk_rng_.draws());
  for (std::size_t i = 0; i < crash_rngs_.size(); ++i) {
    std::fprintf(out, "crash stream node %zu draws=%" PRIu64 "\n", i + 1,
                 crash_rngs_[i]->draws());
  }
}

}  // namespace ccsim::fault
