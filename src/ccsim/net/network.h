#ifndef CCSIM_NET_NETWORK_H_
#define CCSIM_NET_NETWORK_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "ccsim/common/flat_hash.h"
#include "ccsim/common/types.h"
#include "ccsim/config/params.h"
#include "ccsim/resource/cpu.h"
#include "ccsim/sim/arena.h"
#include "ccsim/sim/event_fn.h"
#include "ccsim/sim/process.h"
#include "ccsim/sim/simulation.h"

namespace ccsim::net {

/// Message kinds, used only for accounting (the payload travels in the
/// delivery closure).
enum class MsgTag {
  kLoadCohort,
  kCohortReady,
  kCohortAborted,
  kPrepare,
  kVote,
  kCommit,
  kAbort,
  kAck,
  kAbortRequest,
  kSnoopQuery,
  kSnoopReply,
  kSnoopHandoff,
  kCount,  // sentinel
};

const char* ToString(MsgTag tag);

/// The network manager, refactored into a pluggable cost model
/// (config::NetModel) behind the original Send API.
///
/// kSwitch (default) is the paper's network of Sec 3.5: a switch with
/// negligible wire time. Sending a message charges `InstPerMsg` of
/// message-class CPU at the sender; on completion the message crosses
/// instantaneously and charges `InstPerMsg` at the receiver; then the
/// delivery closure runs at the receiving node. Under the default NetParams
/// this path is byte-identical (same events, same order) to the pre-model
/// simulator - the determinism goldens and the committed result cache pin
/// this.
///
/// kBandwidth adds a finite directed link per (from, to) pair: after the
/// sender's CPU charge the message serializes at link_mbytes_per_sec (FIFO
/// per link - it queues behind earlier messages still on the wire), crosses
/// in wire_latency_sec, and then charges the receiver as usual. A message's
/// wire size is msg_bytes + payload_items * bytes_per_item.
///
/// kRdma models one-sided read/CAS ops: the sender posts the op (the usual
/// sender-side CPU charge), it completes after rdma_op_latency_sec, and the
/// delivery closure runs WITHOUT any receiver CPU charge - the NIC bypasses
/// the remote processor entirely.
///
/// NetParams::batching enables the delivery fast path (any model): local
/// hand-offs run synchronously with zero calendar events, and a remote send
/// whose sender-side CPU charge for an earlier message to the same
/// destination is still pending piggybacks on that message's batch - zero
/// extra CPU, wire, and calendar cost for the rider.
///
/// Local sends (from == to) model intra-node hand-offs: they cost no CPU and
/// (without batching) deliver through the calendar at the current time.
class Network {
 public:
  Network(sim::Simulation* sim, std::vector<resource::Cpu*> node_cpus,
          double inst_per_msg, const config::NetParams& net = {});
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// `deliver` is a move-only EventFn: small delivery closures ride inline
  /// through the calendar and the delivery coroutine without heap traffic.
  /// `payload_items` is the number of variable-size payload entries the
  /// message carries (page accesses in a LOAD_COHORT, waits-for edges in a
  /// SNOOP_REPLY); it feeds the kBandwidth/kRdma byte accounting and has no
  /// effect under the default kSwitch model.
  void Send(NodeId from, NodeId to, MsgTag tag, sim::EventFn deliver,
            std::uint32_t payload_items = 0);

  /// Fault model for remote transmissions. Absent (the default), the network
  /// is the paper's reliable switch and the delivery path is byte-identical
  /// to the pre-fault simulator. Local sends (from == to) are intra-node
  /// hand-offs and never subject to faults.
  struct FaultPolicy {
    /// Called once per transmission attempt (initial send and every
    /// retransmission); true = this attempt is lost in the switch. Under
    /// kBandwidth a dropped attempt is lost *before* the wire, so it never
    /// occupies link capacity; only the attempt that goes through claims
    /// serialization time.
    std::function<bool(NodeId from, NodeId to, MsgTag tag)> should_drop{};
    /// False = `node` is crashed. A message arriving at a down node vanishes
    /// (no retransmission helps until recovery; protocol timeouts and the
    /// crash-draining logic resolve the wait instead). Null = always up.
    std::function<bool(NodeId node)> node_up{};
    /// Retransmissions per message after the initial attempt; a message
    /// whose attempts are exhausted is counted lost and never delivered.
    int max_retries = 0;
    /// Backoff before the first retransmission; doubles per retry. Each
    /// retransmission recharges InstPerMsg of sender CPU.
    double retry_backoff_sec = 0.0;
  };
  void SetFaultPolicy(FaultPolicy policy) { faults_ = std::move(policy); }

  // Counters accumulate over the whole run; System reports the measurement
  // window by subtracting the values it snapshots at warmup.
  std::uint64_t messages_sent() const { return total_sent_; }
  std::uint64_t messages_sent(MsgTag tag) const {
    return counts_[static_cast<std::size_t>(tag)];
  }
  /// Transmission attempts eaten by the drop hook (retries included).
  std::uint64_t messages_dropped() const { return dropped_; }

  /// Messages abandoned for good: retries exhausted or receiver down.
  std::uint64_t messages_lost() const { return lost_; }

  // --- network-model / fast-path counters (all zero under the default
  // kSwitch model without batching) --------------------------------------
  /// Wire messages that carried a batch (batching fast path).
  std::uint64_t batches_sent() const { return batches_sent_; }
  /// Rider messages that piggybacked on an open batch (no CPU/wire cost).
  std::uint64_t messages_batched() const { return msgs_batched_; }
  /// Local hand-offs delivered synchronously, bypassing the calendar.
  std::uint64_t local_fast_deliveries() const { return local_fast_; }
  /// One-sided ops that crossed the wire under kRdma (dropped attempts die
  /// before posting and are counted in messages_dropped() instead).
  std::uint64_t rdma_ops() const { return rdma_ops_; }
  /// Wire bytes sent under kBandwidth/kRdma (retransmissions included).
  double bytes_sent() const { return bytes_sent_; }
  /// Sum of per-message link-queue waits (kBandwidth) and the number of
  /// wire transmissions behind it, for mean-wait reporting.
  double link_wait_sec_sum() const { return link_wait_sum_; }
  std::uint64_t link_transmissions() const { return link_msgs_; }

  /// Delivery process frames live in the simulation's arena (process.h).
  sim::Arena* process_arena() { return sim_->arena(); }

 private:
  /// One wire message. It lives in the frame of the DeliverProcess that
  /// carries it: the opening send pays the CPU, wire and delivery costs,
  /// and under batching co-timed riders only add their bytes and closures.
  /// A frame still suspended when a run stops mid-window (RunUntil) is
  /// destroyed, batch and all, by the Simulation's registry.
  struct Batch {
    using Riders =
        std::vector<sim::EventFn, sim::ArenaAllocator<sim::EventFn>>;
    double bytes = 0.0;
    Riders riders;
  };

  /// Directed-link state under kBandwidth: when the link's transmitter
  /// frees up, and the last computed arrival (audit: FIFO per link).
  struct Link {
    double free_at = 0.0;
    double last_arrival = 0.0;
  };

  static std::uint64_t LinkKey(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
            << 32) |
           static_cast<std::uint32_t>(to);
  }
  double MessageBytes(std::uint32_t payload_items) const {
    return net_.msg_bytes + static_cast<double>(payload_items) *
                                net_.bytes_per_item;
  }

  /// Computes this wire transmission's arrival time under the active model
  /// and advances the link transmitter (kBandwidth). Returns the delay from
  /// now until the delivery may charge the receiver (0 under kSwitch).
  double WireDelay(NodeId from, NodeId to, double bytes);

  /// Carries one wire message, batched or not, from the sender's CPU charge
  /// (its first await) to the delivery of the opener and its riders.
  sim::Process DeliverProcess(NodeId from, NodeId to, MsgTag tag,
                              sim::EventFn deliver, Batch batch);

  sim::Simulation* sim_;
  std::vector<resource::Cpu*> cpus_;
  double inst_per_msg_;
  config::NetParams net_;
  std::uint64_t total_sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t batches_sent_ = 0;
  std::uint64_t msgs_batched_ = 0;
  std::uint64_t local_fast_ = 0;
  std::uint64_t rdma_ops_ = 0;
  double bytes_sent_ = 0.0;
  double link_wait_sum_ = 0.0;
  std::uint64_t link_msgs_ = 0;
  FaultPolicy faults_;
  std::array<std::uint64_t, static_cast<std::size_t>(MsgTag::kCount)> counts_{};
  /// Open (still accepting riders) batch per directed link, in its
  /// delivery frame; an entry is erased when its opening send's CPU charge
  /// completes (the batch seals).
  common::FlatHashMap<std::uint64_t, Batch*> open_batches_;
  /// Per-directed-link transmitter state (kBandwidth only).
  common::FlatHashMap<std::uint64_t, Link> links_;
};

}  // namespace ccsim::net

#endif  // CCSIM_NET_NETWORK_H_
