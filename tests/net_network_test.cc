#include "ccsim/net/network.h"

#include <gtest/gtest.h>

#include <vector>

#include "ccsim/sim/simulation.h"

namespace ccsim::net {
namespace {

using resource::Cpu;
using sim::Simulation;

// Runs a CPU job nobody waits on.
sim::Process Load(resource::CpuJob job) { co_await job; }

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : host_(&sim_, 10.0),
        node1_(&sim_, 1.0),
        node2_(&sim_, 1.0),
        net_(&sim_, {&host_, &node1_, &node2_}, /*inst_per_msg=*/1000.0) {}

  Simulation sim_;
  Cpu host_;
  Cpu node1_;
  Cpu node2_;
  Network net_;
};

TEST_F(NetworkTest, DeliveryChargesBothEnds) {
  double delivered_at = -1;
  net_.Send(0, 1, MsgTag::kLoadCohort, [&] { delivered_at = sim_.Now(); });
  sim_.Run();
  // 1000 instructions at 10 MIPS (0.1 ms) + 1000 at 1 MIPS (1 ms).
  EXPECT_NEAR(delivered_at, 0.0001 + 0.001, 1e-12);
}

TEST_F(NetworkTest, ReverseDirectionCostsDiffer) {
  double delivered_at = -1;
  net_.Send(1, 0, MsgTag::kVote, [&] { delivered_at = sim_.Now(); });
  sim_.Run();
  EXPECT_NEAR(delivered_at, 0.001 + 0.0001, 1e-12);
}

TEST_F(NetworkTest, SameNodePairDeliversFifo) {
  std::vector<int> order;
  net_.Send(0, 1, MsgTag::kLoadCohort, [&] { order.push_back(1); });
  net_.Send(0, 1, MsgTag::kLoadCohort, [&] { order.push_back(2); });
  net_.Send(0, 1, MsgTag::kLoadCohort, [&] { order.push_back(3); });
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(NetworkTest, SenderCpuSerializesSends) {
  // Two messages from node1 (1 MIPS): sends serialize on the sender CPU,
  // so the second departs at 2 ms and arrives at 2.1 ms.
  std::vector<double> arrivals;
  net_.Send(1, 0, MsgTag::kVote, [&] { arrivals.push_back(sim_.Now()); });
  net_.Send(1, 0, MsgTag::kVote, [&] { arrivals.push_back(sim_.Now()); });
  sim_.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 0.0011, 1e-12);
  EXPECT_NEAR(arrivals[1], 0.0021, 1e-12);
}

TEST_F(NetworkTest, LocalDeliveryIsFreeButDeferred) {
  bool delivered = false;
  net_.Send(1, 1, MsgTag::kAck, [&] { delivered = true; });
  EXPECT_FALSE(delivered);  // goes through the calendar
  sim_.Run();
  EXPECT_TRUE(delivered);
  EXPECT_DOUBLE_EQ(sim_.Now(), 0.0);
  EXPECT_EQ(net_.messages_sent(), 0u);  // not a network message
}

TEST_F(NetworkTest, CountsByTag) {
  net_.Send(0, 1, MsgTag::kLoadCohort, [] {});
  net_.Send(0, 1, MsgTag::kLoadCohort, [] {});
  net_.Send(1, 0, MsgTag::kVote, [] {});
  sim_.Run();
  EXPECT_EQ(net_.messages_sent(), 3u);
  EXPECT_EQ(net_.messages_sent(MsgTag::kLoadCohort), 2u);
  EXPECT_EQ(net_.messages_sent(MsgTag::kVote), 1u);
  EXPECT_EQ(net_.messages_sent(MsgTag::kAck), 0u);
}

TEST_F(NetworkTest, ZeroCostMessagesStillDeliver) {
  Simulation sim;
  Cpu a(&sim, 1.0), b(&sim, 1.0);
  Network net(&sim, {&a, &b}, 0.0);
  bool delivered = false;
  net.Send(0, 1, MsgTag::kCommit, [&] { delivered = true; });
  sim.Run();
  EXPECT_TRUE(delivered);
  EXPECT_DOUBLE_EQ(sim.Now(), 0.0);
  EXPECT_EQ(net.messages_sent(), 1u);
}

TEST_F(NetworkTest, MessageCpuHasPriorityOverUserWork) {
  // Saturate node1 with user work; a message through it should still take
  // ~1 ms of node1 CPU (plus 0.1 ms at the host), not wait behind the user
  // job.
  Load(node1_.ExecuteSeconds(10.0, resource::CpuJobClass::kUser));
  double delivered_at = -1;
  net_.Send(0, 1, MsgTag::kPrepare, [&] { delivered_at = sim_.Now(); });
  sim_.Run();
  EXPECT_NEAR(delivered_at, 0.0011, 1e-9);
}

TEST_F(NetworkTest, ToStringCoversAllTags) {
  for (int i = 0; i < static_cast<int>(MsgTag::kCount); ++i) {
    EXPECT_STRNE(ToString(static_cast<MsgTag>(i)), "?");
  }
}

}  // namespace
}  // namespace ccsim::net
