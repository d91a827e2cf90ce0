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
    const std::uint64_t key = LinkKey(from, to);
    if (Batch** open = open_batches_.Find(key)) {
      // The opening message's sender-CPU charge has not completed yet, so
      // this message is provably co-timed with it: piggyback. The rider
      // costs no CPU, no wire transmission, and no calendar event.
      Batch* b = *open;
      b->delivers.push_back(std::move(deliver));
      b->bytes += bytes;
      ++msgs_batched_;
      return;
    }
    Batch* b = AcquireBatch(from, to, tag, bytes, std::move(deliver));
    open_batches_.TryEmplace(key, b);
    ++batches_sent_;
    BatchProcess(b);
    return;
  }
  DeliverProcess(from, to, tag, std::move(deliver), bytes);
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

sim::Process Network::DeliverProcess(NodeId from, NodeId to, MsgTag tag,
                                     sim::EventFn deliver, double bytes) {
  // The sender's CPU charge. Starting this process schedules no event
  // before it, so the charge is queued at the point of the Send call.
  co_await cpus_[static_cast<std::size_t>(from)]->Execute(
      inst_per_msg_, resource::CpuJobClass::kMessage);
  if (faults_.should_drop) {
    int attempt = 0;
    while (faults_.should_drop(from, to, tag)) {
      // A dropped attempt dies before the wire: under kBandwidth it claims
      // no link capacity (WireDelay runs only for the attempt that gets
      // through), so a drop never delays messages queued behind it.
      ++dropped_;
      if (attempt >= faults_.max_retries) {
        ++lost_;
        co_return;
      }
      // Exponential backoff, then a full retransmission: the sender's CPU is
      // recharged and the attempt is counted like any other send.
      double backoff = faults_.retry_backoff_sec;
      for (int i = 0; i < attempt && backoff < 1e6; ++i) backoff *= 2.0;
      ++attempt;
      co_await sim_->Delay(backoff);
      ++total_sent_;
      ++counts_[static_cast<std::size_t>(tag)];
      if (net_.model != config::NetModel::kSwitch) bytes_sent_ += bytes;
      co_await cpus_[static_cast<std::size_t>(from)]->Execute(
          inst_per_msg_, resource::CpuJobClass::kMessage);
    }
  }
  if (faults_.node_up && !faults_.node_up(to)) {
    // Receiver is crashed: the message is gone for good (delivery to a node
    // that lost its state would be meaningless; recovery re-converges).
    ++lost_;
    co_return;
  }
  if (net_.model != config::NetModel::kSwitch) {
    // The non-switch models put real time on the wire. (The switch model
    // must not even await a zero Delay here: the extra calendar event would
    // break byte-identity with the paper's simulator.)
    co_await sim_->Delay(WireDelay(from, to, bytes));
    if (faults_.node_up && !faults_.node_up(to)) {
      // The receiver crashed while the message was in flight.
      ++lost_;
      co_return;
    }
  }
  if (net_.model == config::NetModel::kRdma) {
    // One-sided op: the NIC completes it without the remote CPU.
    deliver();
    co_return;
  }
  co_await cpus_[static_cast<std::size_t>(to)]->Execute(
      inst_per_msg_, resource::CpuJobClass::kMessage);
  deliver();
}

// ccsim-analyze: hot-path(batch flush: one wire transmission for every coalesced message; batches recycle through a free list)
sim::Process Network::BatchProcess(Batch* b) {
  // The opening send's CPU charge, queued as in DeliverProcess.
  co_await cpus_[static_cast<std::size_t>(b->from)]->Execute(
      inst_per_msg_, resource::CpuJobClass::kMessage);
  // The opening send's CPU charge is done: seal the batch so later sends to
  // this destination open a fresh one.
  open_batches_.Erase(LinkKey(b->from, b->to));
  const NodeId from = b->from;
  const NodeId to = b->to;
  if (faults_.should_drop) {
    int attempt = 0;
    while (faults_.should_drop(from, to, b->tag)) {
      ++dropped_;
      if (attempt >= faults_.max_retries) {
        lost_ += b->delivers.size();
        ReleaseBatch(b);
        co_return;
      }
      double backoff = faults_.retry_backoff_sec;
      for (int i = 0; i < attempt && backoff < 1e6; ++i) backoff *= 2.0;
      ++attempt;
      co_await sim_->Delay(backoff);
      // A retransmission resends the whole batch as one wire message.
      ++total_sent_;
      ++counts_[static_cast<std::size_t>(b->tag)];
      if (net_.model != config::NetModel::kSwitch) bytes_sent_ += b->bytes;
      co_await cpus_[static_cast<std::size_t>(from)]->Execute(
          inst_per_msg_, resource::CpuJobClass::kMessage);
    }
  }
  if (faults_.node_up && !faults_.node_up(to)) {
    lost_ += b->delivers.size();
    ReleaseBatch(b);
    co_return;
  }
  if (net_.model != config::NetModel::kSwitch) {
    co_await sim_->Delay(WireDelay(from, to, b->bytes));
    if (faults_.node_up && !faults_.node_up(to)) {
      lost_ += b->delivers.size();
      ReleaseBatch(b);
      co_return;
    }
  }
  if (net_.model != config::NetModel::kRdma) {
    // One receiver charge for the whole batch: the riders' lock grants and
    // 2PC votes are piggybacked fields of a single wire message.
    co_await cpus_[static_cast<std::size_t>(to)]->Execute(
        inst_per_msg_, resource::CpuJobClass::kMessage);
  }
  for (auto& deliver : b->delivers) deliver();
  ReleaseBatch(b);
}

Network::Batch* Network::AcquireBatch(NodeId from, NodeId to, MsgTag tag,
                                      double bytes, sim::EventFn deliver) {
  Batch* b = free_batches_;
  if (b != nullptr) {
    free_batches_ = b->free_next;
  } else {
    // ccsim-analyze: alloc-ok(pool growth: batches recycle through the free list, so steady-state batching allocates nothing)
    all_batches_.push_back(std::make_unique<Batch>());
    b = all_batches_.back().get();
  }
  b->from = from;
  b->to = to;
  b->tag = tag;
  b->bytes = bytes;
  b->free_next = nullptr;
  b->delivers.clear();  // keeps capacity from the batch's previous life
  b->delivers.push_back(std::move(deliver));
  return b;
}

void Network::ReleaseBatch(Batch* b) {
  b->delivers.clear();
  b->free_next = free_batches_;
  free_batches_ = b;
}

}  // namespace ccsim::net
