#include "ccsim/net/network.h"

#include <utility>

#include "ccsim/sim/check.h"

namespace ccsim::net {

const char* ToString(MsgTag tag) {
  switch (tag) {
    case MsgTag::kLoadCohort: return "LOAD_COHORT";
    case MsgTag::kCohortReady: return "COHORT_READY";
    case MsgTag::kCohortAborted: return "COHORT_ABORTED";
    case MsgTag::kPrepare: return "PREPARE";
    case MsgTag::kVote: return "VOTE";
    case MsgTag::kCommit: return "COMMIT";
    case MsgTag::kAbort: return "ABORT";
    case MsgTag::kAck: return "ACK";
    case MsgTag::kAbortRequest: return "ABORT_REQUEST";
    case MsgTag::kSnoopQuery: return "SNOOP_QUERY";
    case MsgTag::kSnoopReply: return "SNOOP_REPLY";
    case MsgTag::kSnoopHandoff: return "SNOOP_HANDOFF";
    case MsgTag::kCount: break;
  }
  return "?";
}

Network::Network(sim::Simulation* sim, std::vector<resource::Cpu*> node_cpus,
                 double inst_per_msg, const config::NetParams& net)
    : sim_(sim),
      cpus_(std::move(node_cpus)),
      inst_per_msg_(inst_per_msg),
      net_(net) {
  CCSIM_CHECK(inst_per_msg >= 0.0);
  CCSIM_CHECK(net_.link_mbytes_per_sec > 0.0);
  CCSIM_CHECK(net_.wire_latency_sec >= 0.0);
  CCSIM_CHECK(net_.msg_bytes > 0.0);
  CCSIM_CHECK(net_.bytes_per_item >= 0.0);
  CCSIM_CHECK(net_.rdma_op_latency_sec >= 0.0);
}

// ccsim-analyze: hot-path(one call per message hop; distributed configs are message-bound, see BM_NetworkDelivery)
void Network::Send(NodeId from, NodeId to, MsgTag tag, sim::EventFn deliver,
                   std::uint32_t payload_items) {
  CCSIM_CHECK(from >= 0 && from < static_cast<NodeId>(cpus_.size()));
  CCSIM_CHECK(to >= 0 && to < static_cast<NodeId>(cpus_.size()));
  if (from == to) {
    if (net_.batching) {
      // Fast path: an intra-node hand-off has no cost under every model and
      // the protocol layer tolerates synchronous delivery (zero-cost remote
      // messages already deliver synchronously when InstPerMsg is 0), so
      // skip the calendar round-trip entirely.
      ++local_fast_;
      deliver();
      return;
    }
    sim_->After(0.0, std::move(deliver));
    return;
  }
  ++total_sent_;
  ++counts_[static_cast<std::size_t>(tag)];
  const double bytes = MessageBytes(payload_items);
  if (net_.model != config::NetModel::kSwitch) bytes_sent_ += bytes;
  if (net_.batching) {
    if (Batch** open = open_batches_.Find(LinkKey(from, to))) {
      // The opening message's sender-CPU charge has not completed yet, so
      // this message is provably co-timed with it: piggyback. The rider
      // costs no CPU, no wire transmission, and no calendar event.
      (*open)->riders.push_back(std::move(deliver));
      (*open)->bytes += bytes;
      ++msgs_batched_;
      return;
    }
    ++batches_sent_;
  }
  const sim::ArenaAllocator<sim::EventFn> alloc(sim_->arena());
  DeliverProcess(from, to, tag, std::move(deliver),
                 Batch{bytes, Batch::Riders(alloc)});
}

// ccsim-analyze: hot-path(runs once per wire transmission; link state lives in a FlatHashMap, no node allocation)
double Network::WireDelay(NodeId from, NodeId to, double bytes) {
  switch (net_.model) {
    case config::NetModel::kSwitch:
      return 0.0;
    case config::NetModel::kBandwidth: {
      const double now = sim_->Now();
      Link& link = links_[LinkKey(from, to)];
      // FIFO transmitter: serialization starts when the link frees up.
      // Audit invariants: the transmitter never moves backwards, and
      // arrivals on one link are monotone (depart is monotone and the
      // serialization time is non-negative, so FIFO order is preserved).
      const double depart = link.free_at > now ? link.free_at : now;
      CCSIM_CHECK(depart >= now && depart >= link.free_at);
      const double ser = bytes / (net_.link_mbytes_per_sec * 1e6);
      const double arrival = depart + ser + net_.wire_latency_sec;
      CCSIM_CHECK(arrival >= now);
      CCSIM_CHECK(arrival >= link.last_arrival);
      link.free_at = depart + ser;
      link.last_arrival = arrival;
      link_wait_sum_ += depart - now;
      ++link_msgs_;
      return arrival - now;
    }
    case config::NetModel::kRdma:
      ++rdma_ops_;
      return net_.rdma_op_latency_sec;
  }
  return 0.0;
}

// ccsim-analyze: hot-path(one frame per wire message; riders grow in the simulation arena)
sim::Process Network::DeliverProcess(NodeId from, NodeId to, MsgTag tag,
                                     sim::EventFn deliver, Batch batch) {
  // The wire message, `batch`, lives in this frame. Under batching it takes
  // riders until the sender's CPU charge below completes.
  if (net_.batching) open_batches_.TryEmplace(LinkKey(from, to), &batch);
  // The sender's CPU charge. Starting this process schedules no event
  // before it, so the charge is queued at the point of the Send call.
  co_await cpus_[static_cast<std::size_t>(from)]->Execute(
      inst_per_msg_, resource::CpuJobClass::kMessage);
  // The charge is done: seal the batch so later sends to this destination
  // open a fresh one. Every loss below loses the opener and its riders.
  if (net_.batching) open_batches_.Erase(LinkKey(from, to));
  if (faults_.should_drop) {
    int attempt = 0;
    while (faults_.should_drop(from, to, tag)) {
      // A dropped attempt dies before the wire: under kBandwidth it claims
      // no link capacity (WireDelay runs only for the attempt that gets
      // through), so a drop never delays messages queued behind it.
      ++dropped_;
      if (attempt >= faults_.max_retries) {
        lost_ += 1 + batch.riders.size();
        co_return;
      }
      // Exponential backoff, then a full retransmission of the whole wire
      // message: the sender's CPU is recharged and the attempt is counted
      // like any other send.
      double backoff = faults_.retry_backoff_sec;
      for (int i = 0; i < attempt && backoff < 1e6; ++i) backoff *= 2.0;
      ++attempt;
      co_await sim_->Delay(backoff);
      ++total_sent_;
      ++counts_[static_cast<std::size_t>(tag)];
      if (net_.model != config::NetModel::kSwitch) bytes_sent_ += batch.bytes;
      co_await cpus_[static_cast<std::size_t>(from)]->Execute(
          inst_per_msg_, resource::CpuJobClass::kMessage);
    }
  }
  if (faults_.node_up && !faults_.node_up(to)) {
    // Receiver is crashed: the message is gone for good (delivery to a node
    // that lost its state would be meaningless; recovery re-converges).
    lost_ += 1 + batch.riders.size();
    co_return;
  }
  if (net_.model != config::NetModel::kSwitch) {
    // The non-switch models put real time on the wire. (The switch model
    // must not even await a zero Delay here: the extra calendar event would
    // break byte-identity with the paper's simulator.)
    co_await sim_->Delay(WireDelay(from, to, batch.bytes));
    if (faults_.node_up && !faults_.node_up(to)) {
      // The receiver crashed while the message was in flight.
      lost_ += 1 + batch.riders.size();
      co_return;
    }
  }
  if (net_.model != config::NetModel::kRdma) {
    // One receiver charge for the whole wire message: the riders' lock
    // grants and 2PC votes are piggybacked fields of it. Under kRdma the
    // NIC completes the one-sided op without the remote CPU.
    co_await cpus_[static_cast<std::size_t>(to)]->Execute(
        inst_per_msg_, resource::CpuJobClass::kMessage);
  }
  deliver();
  for (sim::EventFn& rider : batch.riders) rider();
}

}  // namespace ccsim::net
