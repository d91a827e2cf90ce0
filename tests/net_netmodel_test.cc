// Tests for the pluggable network cost models (config::NetModel) and the
// batching/zero-event delivery fast path. The default-kSwitch behavior is
// covered by net_network_test.cc (and pinned byte-identical by the
// determinism goldens); these tests exercise what the other models add.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ccsim/config/params.h"
#include "ccsim/engine/run.h"
#include "ccsim/experiments/experiments.h"
#include "ccsim/net/network.h"
#include "ccsim/sim/simulation.h"

namespace ccsim::net {
namespace {

using resource::Cpu;
using sim::Simulation;

// Runs a CPU job nobody waits on.
sim::Process Load(resource::CpuJob job) { co_await job; }

config::NetParams BandwidthParams() {
  config::NetParams p;
  p.model = config::NetModel::kBandwidth;
  // Defaults: 1.25 MB/s links, 50 us wire latency, 256 B + 32 B/item.
  return p;
}

config::NetParams RdmaParams() {
  config::NetParams p;
  p.model = config::NetModel::kRdma;
  return p;
}

class NetModelTest : public ::testing::Test {
 protected:
  // 10 MIPS host (node 0), two 1 MIPS processing nodes, 1K-instruction
  // messages: 0.1 ms sender charge from the host, 1 ms receiver charge at a
  // node (same machine as net_network_test.cc).
  Network MakeNet(const config::NetParams& params) {
    return Network(&sim_, {&host_, &node1_, &node2_}, 1000.0, params);
  }

  Simulation sim_;
  Cpu host_{&sim_, 10.0};
  Cpu node1_{&sim_, 1.0};
  Cpu node2_{&sim_, 1.0};
};

TEST_F(NetModelTest, BandwidthAddsSerializationAndWireLatency) {
  Network net = MakeNet(BandwidthParams());
  double delivered_at = -1;
  net.Send(0, 1, MsgTag::kLoadCohort, [&] { delivered_at = sim_.Now(); });
  sim_.Run();
  // 0.1 ms sender CPU + 256 B / 1.25 MB/s = 204.8 us serialization
  // + 50 us wire latency + 1 ms receiver CPU.
  EXPECT_NEAR(delivered_at, 0.0001 + 0.0002048 + 0.00005 + 0.001, 1e-12);
  EXPECT_DOUBLE_EQ(net.bytes_sent(), 256.0);
  EXPECT_EQ(net.link_transmissions(), 1u);
  EXPECT_DOUBLE_EQ(net.link_wait_sec_sum(), 0.0);
}

TEST_F(NetModelTest, PayloadItemsEnlargeTheWireMessage) {
  Network net = MakeNet(BandwidthParams());
  double delivered_at = -1;
  net.Send(0, 1, MsgTag::kLoadCohort, [&] { delivered_at = sim_.Now(); },
           /*payload_items=*/8);
  sim_.Run();
  // 256 + 8 * 32 = 512 bytes: serialization doubles to 409.6 us.
  EXPECT_NEAR(delivered_at, 0.0001 + 0.0004096 + 0.00005 + 0.001, 1e-12);
  EXPECT_DOUBLE_EQ(net.bytes_sent(), 512.0);
}

TEST_F(NetModelTest, BandwidthLinkIsFifoAndQueues) {
  Network net = MakeNet(BandwidthParams());
  std::vector<int> order;
  net.Send(0, 1, MsgTag::kLoadCohort, [&] { order.push_back(1); });
  net.Send(0, 1, MsgTag::kLoadCohort, [&] { order.push_back(2); });
  sim_.Run();
  // The sender charges serialize on the host's message CPU (done at 0.1 and
  // 0.2 ms); the first message holds the wire for 204.8 us [0.1, 0.3048 ms],
  // so the second - at the wire from 0.2 ms - waits 104.8 us for the
  // transmitter.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(net.link_transmissions(), 2u);
  EXPECT_NEAR(net.link_wait_sec_sum(), 0.0001048, 1e-12);
}

TEST_F(NetModelTest, ReverseLinksDoNotShareCapacity) {
  Network net = MakeNet(BandwidthParams());
  int delivered = 0;
  net.Send(1, 2, MsgTag::kVote, [&] { ++delivered; });
  net.Send(2, 1, MsgTag::kVote, [&] { ++delivered; });
  sim_.Run();
  // Directed links: 1->2 and 2->1 are distinct transmitters, no queueing.
  EXPECT_EQ(delivered, 2);
  EXPECT_DOUBLE_EQ(net.link_wait_sec_sum(), 0.0);
}

TEST_F(NetModelTest, DroppedAttemptClaimsNoLinkCapacity) {
  Network net = MakeNet(BandwidthParams());
  // Drop only the first transmission attempt seen on the 0->1 link.
  int drops_left = 1;
  Network::FaultPolicy policy;
  policy.should_drop = [&drops_left](NodeId, NodeId, MsgTag) {
    if (drops_left > 0) {
      --drops_left;
      return true;
    }
    return false;
  };
  policy.max_retries = 1;
  policy.retry_backoff_sec = 0.01;
  net.SetFaultPolicy(std::move(policy));
  int delivered = 0;
  net.Send(0, 1, MsgTag::kLoadCohort, [&] { ++delivered; });
  net.Send(0, 1, MsgTag::kLoadCohort, [&] { ++delivered; });
  sim_.Run();
  // The first message's first attempt dies before the wire, so the second
  // message - co-timed with it - finds the transmitter idle and waits zero.
  // (If drops claimed capacity, it would wait one serialization time.) The
  // retransmission then gets the link, also finding it idle.
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_EQ(net.messages_lost(), 0u);
  EXPECT_EQ(net.link_transmissions(), 2u);
  EXPECT_DOUBLE_EQ(net.link_wait_sec_sum(), 0.0);
}

TEST_F(NetModelTest, BandwidthRetriesAreBoundedAndCounted) {
  Network net = MakeNet(BandwidthParams());
  Network::FaultPolicy policy;
  policy.should_drop = [](NodeId, NodeId, MsgTag) { return true; };
  policy.max_retries = 2;
  policy.retry_backoff_sec = 0.001;
  net.SetFaultPolicy(std::move(policy));
  bool delivered = false;
  net.Send(0, 1, MsgTag::kPrepare, [&] { delivered = true; });
  sim_.Run();
  // Initial attempt + 2 retransmissions, all dropped before the wire.
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.messages_dropped(), 3u);
  EXPECT_EQ(net.messages_lost(), 1u);
  EXPECT_EQ(net.messages_sent(), 3u);
  EXPECT_DOUBLE_EQ(net.bytes_sent(), 3 * 256.0);
  EXPECT_EQ(net.link_transmissions(), 0u);
}

TEST_F(NetModelTest, RdmaBypassesReceiverCpu) {
  Network net = MakeNet(RdmaParams());
  // Saturate the receiver with user work: a one-sided op must not care.
  Load(node1_.ExecuteSeconds(10.0, resource::CpuJobClass::kUser));
  double delivered_at = -1;
  net.Send(0, 1, MsgTag::kCommit, [&] { delivered_at = sim_.Now(); });
  sim_.RunUntil(1.0);
  // 0.1 ms sender post + 5 us one-sided completion; no 1 ms receiver
  // charge (the two-sided path would deliver at >= 1.1 ms even idle).
  EXPECT_NEAR(delivered_at, 0.0001 + 0.000005, 1e-12);
  EXPECT_EQ(net.rdma_ops(), 1u);
  EXPECT_DOUBLE_EQ(net.bytes_sent(), 256.0);
}

TEST_F(NetModelTest, RdmaAgainstCrashedNodeIsLost) {
  Network net = MakeNet(RdmaParams());
  Network::FaultPolicy policy;
  policy.node_up = [](NodeId node) { return node != 1; };
  net.SetFaultPolicy(std::move(policy));
  bool delivered = false;
  net.Send(0, 1, MsgTag::kCommit, [&] { delivered = true; });
  sim_.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.messages_lost(), 1u);
}

class BatchingTest : public NetModelTest {
 protected:
  config::NetParams BatchingParams() {
    config::NetParams p;  // kSwitch
    p.batching = true;
    return p;
  }
};

TEST_F(BatchingTest, CoTimedSendsCoalesceIntoOneWireMessage) {
  Network net = MakeNet(BatchingParams());
  std::vector<double> arrivals;
  for (int i = 0; i < 3; ++i) {
    net.Send(0, 1, MsgTag::kVote, [&] { arrivals.push_back(sim_.Now()); });
  }
  sim_.Run();
  // One opening send pays 0.1 ms sender CPU + 1 ms receiver CPU; the two
  // riders cost nothing and deliver with it, in send order.
  ASSERT_EQ(arrivals.size(), 3u);
  for (double t : arrivals) EXPECT_NEAR(t, 0.0011, 1e-12);
  EXPECT_EQ(net.batches_sent(), 1u);
  EXPECT_EQ(net.messages_batched(), 2u);
  EXPECT_EQ(net.messages_sent(), 3u);  // accounting still sees 3 messages
}

TEST_F(BatchingTest, BatchSealsWhenSenderChargeCompletes) {
  Network net = MakeNet(BatchingParams());
  int delivered = 0;
  net.Send(0, 1, MsgTag::kVote, [&] { ++delivered; });
  // The opening charge (0.1 ms) is long done by 1 ms: this send must open
  // a fresh batch, not ride a sealed one.
  sim_.At(0.001, [&] { net.Send(0, 1, MsgTag::kVote, [&] { ++delivered; }); });
  sim_.Run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.batches_sent(), 2u);
  EXPECT_EQ(net.messages_batched(), 0u);
}

TEST_F(BatchingTest, DistinctDestinationsDoNotCoalesce) {
  Network net = MakeNet(BatchingParams());
  int delivered = 0;
  net.Send(0, 1, MsgTag::kVote, [&] { ++delivered; });
  net.Send(0, 2, MsgTag::kVote, [&] { ++delivered; });
  sim_.Run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.batches_sent(), 2u);
  EXPECT_EQ(net.messages_batched(), 0u);
}

TEST_F(BatchingTest, LocalDeliveryIsSynchronousAndEventFree) {
  Network net = MakeNet(BatchingParams());
  bool delivered = false;
  net.Send(1, 1, MsgTag::kAck, [&] { delivered = true; });
  // No calendar round-trip: the hand-off already happened.
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.local_fast_deliveries(), 1u);
  EXPECT_EQ(net.messages_sent(), 0u);
}

TEST_F(BatchingTest, WholeBatchIsLostAtCrashedReceiver) {
  Network net = MakeNet(BatchingParams());
  Network::FaultPolicy policy;
  policy.node_up = [](NodeId node) { return node != 1; };
  net.SetFaultPolicy(std::move(policy));
  int delivered = 0;
  for (int i = 0; i < 3; ++i) {
    net.Send(0, 1, MsgTag::kVote, [&] { ++delivered; });
  }
  sim_.Run();
  // The opener and both riders vanish together.
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.messages_lost(), 3u);
}

TEST_F(BatchingTest, BatchRetransmitsAsOneWireMessage) {
  Network net = MakeNet(BatchingParams());
  int drops_left = 1;
  Network::FaultPolicy policy;
  policy.should_drop = [&drops_left](NodeId, NodeId, MsgTag) {
    if (drops_left > 0) {
      --drops_left;
      return true;
    }
    return false;
  };
  policy.max_retries = 1;
  policy.retry_backoff_sec = 0.01;
  net.SetFaultPolicy(std::move(policy));
  int delivered = 0;
  for (int i = 0; i < 3; ++i) {
    net.Send(0, 1, MsgTag::kVote, [&] { ++delivered; });
  }
  sim_.Run();
  // One drop eats the whole batch's attempt; one retransmission (a single
  // wire message, a single extra sender charge) recovers all three.
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_EQ(net.messages_sent(), 4u);  // 3 logical + 1 batch retransmission
}

TEST_F(BatchingTest, BatchFailingEveryRetryLosesEveryRider) {
  Network net = MakeNet(BatchingParams());
  Network::FaultPolicy policy;
  policy.should_drop = [](NodeId, NodeId, MsgTag) { return true; };
  policy.max_retries = 1;
  policy.retry_backoff_sec = 0.01;
  net.SetFaultPolicy(std::move(policy));
  int delivered = 0;
  for (int i = 0; i < 3; ++i) {
    net.Send(0, 1, MsgTag::kVote, [&] { ++delivered; });
  }
  sim_.Run();
  // Both attempts of the one wire message die; the opener and both riders
  // are lost with it, and none is delivered.
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.messages_dropped(), 2u);
  EXPECT_EQ(net.messages_lost(), 3u);
  EXPECT_EQ(net.messages_sent(), 4u);  // 3 logical + 1 batch retransmission
}

TEST_F(BatchingTest, BandwidthBatchSerializesItsSummedBytesOnce) {
  config::NetParams params = BandwidthParams();
  params.batching = true;
  Network net = MakeNet(params);
  std::vector<double> arrivals;
  for (std::uint32_t items = 1; items <= 3; ++items) {
    net.Send(
        0, 1, MsgTag::kLoadCohort, [&] { arrivals.push_back(sim_.Now()); },
        /*payload_items=*/items);
  }
  sim_.Run();
  // One wire message of 288 + 320 + 352 = 960 bytes: 0.1 ms sender CPU +
  // 768 us serialization + 50 us wire latency + 1 ms receiver CPU, and all
  // three arrive together.
  ASSERT_EQ(arrivals.size(), 3u);
  for (double t : arrivals) {
    EXPECT_NEAR(t, 0.0001 + 0.000768 + 0.00005 + 0.001, 1e-12);
  }
  EXPECT_DOUBLE_EQ(net.bytes_sent(), 960.0);
  EXPECT_EQ(net.link_transmissions(), 1u);
  EXPECT_EQ(net.batches_sent(), 1u);
  EXPECT_EQ(net.messages_batched(), 2u);
}

// The new models and the fast path must stay deterministic: the same config
// run twice produces identical results (the goldens only pin the default
// kSwitch path; this is the self-consistency check for the rest).
TEST(NetModelDeterminismTest, ModelsAndBatchingAreReproducible) {
  struct Variant {
    config::NetModel model;
    bool batching;
  };
  for (const auto& v :
       {Variant{config::NetModel::kBandwidth, false},
        Variant{config::NetModel::kRdma, false},
        Variant{config::NetModel::kSwitch, true}}) {
    config::SystemConfig cfg = experiments::Exp1Config(
        4, config::CcAlgorithm::kTwoPhaseLocking, 4.0);
    cfg.net.model = v.model;
    cfg.net.batching = v.batching;
    cfg.run.warmup_sec = 5;
    cfg.run.measure_sec = 30;
    auto a = engine::RunSimulation(cfg);
    auto b = engine::RunSimulation(cfg);
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.events, b.events);
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
    EXPECT_DOUBLE_EQ(a.messages_per_commit, b.messages_per_commit);
    EXPECT_EQ(a.net_batches_sent, b.net_batches_sent);
    EXPECT_EQ(a.net_msgs_batched, b.net_msgs_batched);
    EXPECT_DOUBLE_EQ(a.net_bytes_sent, b.net_bytes_sent);
  }
}

// The models' cost ordering on a real run: wire time can only slow the
// machine down vs the free switch, and removing the receiver charge can
// only speed it up. (Weak inequalities: at think 4 the machine is not
// saturated, so small differences are expected but the sign is pinned.)
TEST(NetModelDeterminismTest, ModelCostOrderingHolds) {
  auto run = [](config::NetModel model) {
    config::SystemConfig cfg = experiments::Exp1Config(
        4, config::CcAlgorithm::kTwoPhaseLocking, 1.0);
    cfg.net.model = model;
    cfg.run.warmup_sec = 10;
    cfg.run.measure_sec = 60;
    return engine::RunSimulation(cfg);
  };
  auto sw = run(config::NetModel::kSwitch);
  auto bw = run(config::NetModel::kBandwidth);
  auto rd = run(config::NetModel::kRdma);
  // Every remote message gains serialization + wire latency under
  // kBandwidth, so transactions cannot get faster.
  EXPECT_GE(bw.mean_response_time, sw.mean_response_time);
  // And each message sheds its ~1 ms receiver charge under kRdma, so
  // responses cannot get slower.
  EXPECT_LE(rd.mean_response_time, sw.mean_response_time);
  EXPECT_GT(bw.net_bytes_sent, 0.0);
  EXPECT_GT(bw.net_link_wait_sec_mean, 0.0);
  EXPECT_GT(rd.net_rdma_ops, 0u);
  EXPECT_EQ(sw.net_bytes_sent, 0.0);  // switch model does no byte accounting
}

}  // namespace
}  // namespace ccsim::net
