#include "ccsim/config/params.h"

#include <gtest/gtest.h>

namespace ccsim::config {
namespace {

TEST(Config, PaperBaseConfigIsValid) {
  EXPECT_EQ(PaperBaseConfig().Validate(), "");
}

TEST(Config, PaperBaseConfigMatchesTable4) {
  SystemConfig cfg = PaperBaseConfig();
  EXPECT_EQ(cfg.machine.num_proc_nodes, 8);
  EXPECT_DOUBLE_EQ(cfg.machine.host_mips, 10.0);
  EXPECT_DOUBLE_EQ(cfg.machine.node_mips, 1.0);
  EXPECT_EQ(cfg.machine.disks_per_node, 2);
  EXPECT_DOUBLE_EQ(cfg.machine.min_disk_ms, 10.0);
  EXPECT_DOUBLE_EQ(cfg.machine.max_disk_ms, 30.0);
  EXPECT_EQ(cfg.database.num_relations, 8);
  EXPECT_EQ(cfg.database.partitions_per_relation, 8);
  EXPECT_EQ(cfg.database.num_files(), 64);
  EXPECT_EQ(cfg.database.pages_per_file, 300);
  EXPECT_EQ(cfg.database.total_pages(), 19200);
  EXPECT_EQ(cfg.workload.num_terminals, 128);
  ASSERT_EQ(cfg.workload.classes.size(), 1u);
  EXPECT_DOUBLE_EQ(cfg.workload.classes[0].pages_per_partition_avg, 8.0);
  EXPECT_DOUBLE_EQ(cfg.workload.classes[0].write_prob, 0.25);
  EXPECT_DOUBLE_EQ(cfg.workload.classes[0].inst_per_page, 8000.0);
  EXPECT_DOUBLE_EQ(cfg.costs.inst_per_update, 2000.0);
  EXPECT_DOUBLE_EQ(cfg.costs.inst_per_startup, 2000.0);
  EXPECT_DOUBLE_EQ(cfg.costs.inst_per_msg, 1000.0);
  EXPECT_DOUBLE_EQ(cfg.costs.inst_per_cc_req, 0.0);
  EXPECT_DOUBLE_EQ(cfg.costs.deadlock_interval_sec, 1.0);
}

TEST(Config, LargeDatabaseSize) {
  SystemConfig cfg = PaperBaseConfig();
  cfg.database.pages_per_file = 1200;
  EXPECT_EQ(cfg.database.total_pages(), 76800);
}

TEST(ConfigValidate, RejectsBadMachine) {
  SystemConfig cfg = PaperBaseConfig();
  cfg.machine.num_proc_nodes = 0;
  EXPECT_NE(cfg.Validate(), "");
  cfg = PaperBaseConfig();
  cfg.machine.node_mips = -1;
  EXPECT_NE(cfg.Validate(), "");
  cfg = PaperBaseConfig();
  cfg.machine.max_disk_ms = 5;  // below min
  EXPECT_NE(cfg.Validate(), "");
  cfg = PaperBaseConfig();
  cfg.machine.disks_per_node = 64;  // a node's RNG stream band holds 63
  EXPECT_NE(cfg.Validate(), "");
}

TEST(ConfigValidate, RejectsBadPlacement) {
  SystemConfig cfg = PaperBaseConfig();
  cfg.placement.degree = 3;  // does not divide 8
  EXPECT_NE(cfg.Validate(), "");
  cfg.placement.degree = 16;  // exceeds nodes
  EXPECT_NE(cfg.Validate(), "");
  cfg.placement.degree = 0;
  EXPECT_NE(cfg.Validate(), "");
}

TEST(ConfigValidate, RejectsBadWorkload) {
  SystemConfig cfg = PaperBaseConfig();
  cfg.workload.classes[0].write_prob = 1.5;
  EXPECT_NE(cfg.Validate(), "");
  cfg = PaperBaseConfig();
  cfg.workload.classes[0].fraction = 0.5;  // fractions must sum to 1
  EXPECT_NE(cfg.Validate(), "");
  cfg = PaperBaseConfig();
  cfg.workload.num_terminals = 100;  // not a multiple of 8 relations
  EXPECT_NE(cfg.Validate(), "");
  cfg = PaperBaseConfig();
  cfg.workload.think_time_sec = -1;
  EXPECT_NE(cfg.Validate(), "");
  cfg = PaperBaseConfig();
  cfg.run.rt_batch_size = 0;  // response-time batches must hold a sample
  EXPECT_NE(cfg.Validate(), "");
}

TEST(ConfigValidate, RejectsPageCountExceedingFile) {
  SystemConfig cfg = PaperBaseConfig();
  cfg.database.pages_per_file = 10;
  cfg.workload.classes[0].pages_per_partition_avg = 8;  // max count 12 > 10
  EXPECT_NE(cfg.Validate(), "");
}

TEST(ConfigValidate, AcceptsMultipleClasses) {
  SystemConfig cfg = PaperBaseConfig();
  TransactionClassParams second = cfg.workload.classes[0];
  cfg.workload.classes[0].fraction = 0.75;
  second.fraction = 0.25;
  second.exec_pattern = ExecPattern::kSequential;
  cfg.workload.classes.push_back(second);
  EXPECT_EQ(cfg.Validate(), "");
}

TEST(ConfigFingerprint, StableForEqualConfigs) {
  EXPECT_EQ(PaperBaseConfig().Fingerprint(), PaperBaseConfig().Fingerprint());
}

TEST(ConfigFingerprint, SensitiveToEveryInterestingKnob) {
  SystemConfig base = PaperBaseConfig();
  auto fp = base.Fingerprint();

  SystemConfig c = base;
  c.algorithm = CcAlgorithm::kOptimistic;
  EXPECT_NE(c.Fingerprint(), fp);

  c = base;
  c.workload.think_time_sec += 1;
  EXPECT_NE(c.Fingerprint(), fp);

  c = base;
  c.placement.degree = 1;
  EXPECT_NE(c.Fingerprint(), fp);

  c = base;
  c.database.pages_per_file = 1200;
  EXPECT_NE(c.Fingerprint(), fp);

  c = base;
  c.costs.inst_per_msg = 4000;
  EXPECT_NE(c.Fingerprint(), fp);

  c = base;
  c.run.seed = 43;
  EXPECT_NE(c.Fingerprint(), fp);

  c = base;
  c.run.measure_sec += 1;
  EXPECT_NE(c.Fingerprint(), fp);

  c = base;
  c.machine.num_proc_nodes = 4;
  c.placement.degree = 4;
  EXPECT_NE(c.Fingerprint(), fp);

  // An audit run reports different result fields (audited/serializable), so
  // it must not share a cache slot with the plain run of the same config.
  c = base;
  c.run.enable_audit = true;
  EXPECT_NE(c.Fingerprint(), fp);
}

TEST(ConfigFingerprint, DiagnosticKnobsDoNotKeyTheCache) {
  // The watchdog only decides whether a broken run dies loudly; arming it
  // must not invalidate cached results (see Fingerprint()'s RunParams
  // binding).
  SystemConfig base = PaperBaseConfig();
  SystemConfig c = base;
  c.run.watchdog_max_events = 1000000000;
  c.run.watchdog_stall_sec = 3600.0;
  EXPECT_EQ(c.Fingerprint(), base.Fingerprint());
}

TEST(ConfigValidate, RejectsBadNetParams) {
  SystemConfig cfg = PaperBaseConfig();
  cfg.net.link_mbytes_per_sec = 0.0;
  EXPECT_NE(cfg.Validate(), "");
  cfg = PaperBaseConfig();
  cfg.net.wire_latency_sec = -1.0;
  EXPECT_NE(cfg.Validate(), "");
  cfg = PaperBaseConfig();
  cfg.net.msg_bytes = 0.0;
  EXPECT_NE(cfg.Validate(), "");
  cfg = PaperBaseConfig();
  cfg.net.bytes_per_item = -1.0;
  EXPECT_NE(cfg.Validate(), "");
  cfg = PaperBaseConfig();
  cfg.net.rdma_op_latency_sec = -1.0;
  EXPECT_NE(cfg.Validate(), "");
}

TEST(ConfigFingerprint, DefaultNetParamsPreserveLegacyFingerprints) {
  // Under the default switch model without batching, NetParams is inert: the
  // shape knobs are never read, so changing them must not invalidate the
  // committed result cache (they mix into the fingerprint only when
  // NetParams::any() is true).
  SystemConfig base = PaperBaseConfig();
  SystemConfig c = base;
  c.net.link_mbytes_per_sec = 125.0;
  c.net.wire_latency_sec = 1e-3;
  c.net.msg_bytes = 4096.0;
  c.net.bytes_per_item = 64.0;
  c.net.rdma_op_latency_sec = 1e-3;
  EXPECT_EQ(c.Fingerprint(), base.Fingerprint());
}

TEST(ConfigFingerprint, NetModelAndBatchingKeyTheCache) {
  SystemConfig base = PaperBaseConfig();
  auto fp = base.Fingerprint();

  SystemConfig c = base;
  c.net.model = NetModel::kBandwidth;
  auto bw = c.Fingerprint();
  EXPECT_NE(bw, fp);

  c = base;
  c.net.model = NetModel::kRdma;
  auto rdma = c.Fingerprint();
  EXPECT_NE(rdma, fp);
  EXPECT_NE(rdma, bw);

  c = base;
  c.net.batching = true;
  EXPECT_NE(c.Fingerprint(), fp);

  // Once a non-switch model is active its shape knobs are load-bearing and
  // must key the cache.
  c = base;
  c.net.model = NetModel::kBandwidth;
  c.net.link_mbytes_per_sec = 125.0;
  EXPECT_NE(c.Fingerprint(), bw);
  c = base;
  c.net.model = NetModel::kBandwidth;
  c.net.msg_bytes = 4096.0;
  EXPECT_NE(c.Fingerprint(), bw);
}

TEST(ConfigToString, NetModelNames) {
  EXPECT_STREQ(ToString(NetModel::kSwitch), "switch");
  EXPECT_STREQ(ToString(NetModel::kBandwidth), "bandwidth");
  EXPECT_STREQ(ToString(NetModel::kRdma), "rdma");
}

TEST(ConfigToString, AlgorithmNames) {
  EXPECT_STREQ(ToString(CcAlgorithm::kNoDc), "NO_DC");
  EXPECT_STREQ(ToString(CcAlgorithm::kTwoPhaseLocking), "2PL");
  EXPECT_STREQ(ToString(CcAlgorithm::kWoundWait), "WW");
  EXPECT_STREQ(ToString(CcAlgorithm::kBasicTimestamp), "BTO");
  EXPECT_STREQ(ToString(CcAlgorithm::kOptimistic), "OPT");
}

TEST(ConfigToString, ExecPatternNames) {
  EXPECT_STREQ(ToString(ExecPattern::kSequential), "sequential");
  EXPECT_STREQ(ToString(ExecPattern::kParallel), "parallel");
}

TEST(Config, AllAlgorithmsListHasFiveEntries) {
  int n = 0;
  for (auto alg : kAllAlgorithms) {
    (void)alg;
    ++n;
  }
  EXPECT_EQ(n, 5);
}

}  // namespace
}  // namespace ccsim::config
