#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ccsim/experiments/cache.h"
#include "ccsim/experiments/experiments.h"
#include "ccsim/experiments/report.h"
#include "ccsim/experiments/sweep.h"
#include "test_util.h"

namespace ccsim::experiments {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("ccsim_cache_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  static int counter_;
  std::filesystem::path path_;
};
int TempDir::counter_ = 0;

engine::RunResult SampleResult() {
  engine::RunResult r;
  r.throughput = 10.25;
  r.mean_response_time = 4.5;
  r.rt_ci_half_width = 0.25;
  r.max_response_time = 31.0;
  r.commits = 3069;
  r.aborts = 641;
  r.abort_ratio = 0.2088;
  r.host_cpu_util = 0.06;
  r.proc_cpu_util = 0.90;
  r.disk_util = 0.92;
  r.mean_blocking_time = 1.28;
  r.blocked_waits = 5120;
  r.messages_per_commit = 55.6;
  r.transactions_submitted = 3200;
  r.live_at_end = 62;
  r.events = 2010117;
  r.sim_seconds = 350;
  r.wall_seconds = 0.9;
  r.audited = true;
  r.serializable = true;
  return r;
}

// A value for every listed field that differs from its default, so a field
// that the codec dropped or mixed up with another shows in the comparison.
// Doubles need all 17 significant digits to come back exactly.
void SetDistinct(double* v, int i) { *v = 1.0 / (i + 3); }
void SetDistinct(std::uint64_t* v, int i) {
  *v = (std::uint64_t{1} << 60) + static_cast<std::uint64_t>(i);
}
void SetDistinct(bool* v, int) { *v = !*v; }

TEST(ResultSerialization, RoundTripsAllFields) {
  engine::RunResult r;
  int i = 0;
#define CCSIM_SET_FIELD(type, name, init) SetDistinct(&r.name, i++);
  CCSIM_RUN_RESULT_FIELDS(CCSIM_SET_FIELD)
#undef CCSIM_SET_FIELD
  auto parsed = ParseResult(SerializeResult(r));
  ASSERT_TRUE(parsed.has_value());
  const engine::RunResult defaults;
#define CCSIM_EXPECT_FIELD(type, name, init)  \
  EXPECT_EQ(parsed->name, r.name) << #name; \
  EXPECT_NE(parsed->name, defaults.name) << #name;
  CCSIM_RUN_RESULT_FIELDS(CCSIM_EXPECT_FIELD)
#undef CCSIM_EXPECT_FIELD
}

TEST(ResultSerialization, RejectsARepeatedLineInPlaceOfAnother) {
  // Every line of the body in turn is overwritten with its successor: the
  // trailer still matches the line count, but one field is missing.
  std::vector<std::string> lines;
  std::istringstream in(SerializeResult(SampleResult()));
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  const std::string trailer = lines.back();
  lines.pop_back();
  ASSERT_EQ(trailer, "field_count " + std::to_string(lines.size()));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string text;
    for (std::size_t j = 0; j < lines.size(); ++j) {
      text += lines[j == i ? (i + 1) % lines.size() : j] + "\n";
    }
    EXPECT_FALSE(ParseResult(text + trailer + "\n").has_value())
        << "line " << i << " replaced by a copy of line "
        << (i + 1) % lines.size();
  }
}

TEST(ResultSerialization, RejectsGarbage) {
  EXPECT_FALSE(ParseResult("").has_value());
  EXPECT_FALSE(ParseResult("throughput abc").has_value());
  EXPECT_FALSE(ParseResult("throughput 1.0").has_value());  // too few fields
}

TEST(ResultCache, CommittedEntriesAreCurrentAndRoundTripByteForByte) {
  // Every committed entry must be at the current format and re-serialize to
  // its exact bytes: a change to the field list or to the value formatting
  // fails here until the cache is regenerated (EXPERIMENTS.md).
  std::string prefix = "v";
  prefix += std::to_string(ResultCache::kFormatVersion);
  prefix += "_";
  int entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(CCSIM_SOURCE_DIR) / "ccsim_bench_cache")) {
    if (entry.path().extension() != ".result") continue;
    ++entries;
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.rfind(prefix, 0), 0u) << name;
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    auto parsed = ParseResult(bytes.str());
    if (!parsed) {
      ADD_FAILURE() << name << " does not parse";
      continue;
    }
    EXPECT_EQ(SerializeResult(*parsed), bytes.str()) << name;
  }
  EXPECT_GT(entries, 0);
}

TEST(ResultCache, FigureConfigsFindTheirCommittedEntries) {
  // The committed cache is keyed by SystemConfig::Fingerprint(), so a
  // changed hash would silently re-simulate every figure. One figure config
  // per block that Fingerprint() mixes must find its committed entry. The
  // entry is only checked for existence: Load renames what it cannot parse.
  using config::CcAlgorithm;
  using Cfg = config::SystemConfig;
  const auto k2pl = CcAlgorithm::kTwoPhaseLocking;
  const auto kOpt = CcAlgorithm::kOptimistic;
  const auto kWw = CcAlgorithm::kWoundWait;
  const auto kBandwidth = config::NetModel::kBandwidth;
  auto with = [](Cfg cfg, void (*edit)(Cfg&)) {
    edit(cfg);
    return cfg;
  };
  // ApplyRunScale's default window, whatever CCSIM_QUICK or CCSIM_FULL say.
  auto key = [](Cfg cfg) {
    cfg.run.warmup_sec = 300;
    cfg.run.measure_sec = 1500;
    return cfg.Fingerprint();
  };
  const Cfg exp2 = Exp2Config(8, 300, k2pl, 4);
  const std::pair<const char*, Cfg> committed[] = {
      {"exp1", Exp1Config(8, k2pl, 8)},
      {"exp1 one node", Exp1Config(1, kOpt, 0)},
      {"faults", FaultConfig(k2pl, 8, 120)},
      {"overload", OverloadConfig(k2pl, 7, /*admission=*/true)},
      {"knee", KneeConfig(kWw, 256)},
      {"bandwidth", WithNetModel(Exp1Config(8, k2pl, 8), kBandwidth)},
      {"rdma", WithNetModel(Exp1Config(8, kOpt, 0), config::NetModel::kRdma)},
      {"batching", with(Exp1Config(8, k2pl, 8),
                        [](Cfg& c) { c.net.batching = true; })},
      {"12.5 KB/s link",
       with(WithNetModel(Exp2Config(8, 300, CcAlgorithm::kBasicTimestamp, 8),
                         kBandwidth),
            [](Cfg& c) { c.net.link_mbytes_per_sec = 0.0125; })},
      {"2PL-TO timeout",
       with(Exp2Config(8, 300, CcAlgorithm::kTwoPhaseLockingTimeout, 4),
            [](Cfg& c) { c.locking.timeout_sec = 0.5; })},
      {"queue jump", with(exp2, [](Cfg& c) { c.locking.queue_jump = true; })},
      {"sequential", with(Exp2Config(8, 300, kWw, 16), [](Cfg& c) {
         c.workload.classes[0].exec_pattern = config::ExecPattern::kSequential;
       })},
      {"write prob", with(exp2, [](Cfg& c) {
         c.workload.classes[0].write_prob = 0.125;
       })},
      {"detection interval", with(exp2, [](Cfg& c) {
         c.costs.deadlock_interval_sec = 0.25;
       })},
  };
  const auto dir =
      std::filesystem::path(CCSIM_SOURCE_DIR) / "ccsim_bench_cache";
  for (const auto& [name, cfg] : committed) {
    char file[64];
    std::snprintf(file, sizeof(file), "v%d_%016llx.result",
                  ResultCache::kFormatVersion,
                  static_cast<unsigned long long>(key(cfg)));
    EXPECT_TRUE(std::filesystem::exists(dir / file)) << name << ": " << file;
  }

  // Knobs that no committed entry sets: their fingerprints are pinned.
  EXPECT_EQ(key(with(Exp1Config(8, k2pl, 8),
                     [](Cfg& c) { c.run.enable_audit = true; })),
            0x0747010fa63a8063ULL);
  EXPECT_EQ(key(with(Exp1Config(8, kWw, 8),
                     [](Cfg& c) { c.workload.fake_restarts = true; })),
            0xff511b3656baacfaULL);
  EXPECT_EQ(key(with(Exp1Config(8, k2pl, 8),
                     [](Cfg& c) { c.run.rt_batch_size = 50; })),
            0xfd6adc3aa8fc65dcULL);
}

TEST(ResultCache, ConditionalKnobsKeyDistinctly) {
  // Fake restarts, the audit and a non-default rt_batch_size are each mixed
  // into the key only when set, all three as the value 1 here; the key must
  // still tell them apart, and from the config with none of them.
  using Cfg = config::SystemConfig;
  auto key = [](Cfg cfg, void (*edit)(Cfg&)) {
    cfg.run.warmup_sec = 300;
    cfg.run.measure_sec = 1500;
    edit(cfg);
    return cfg.Fingerprint();
  };
  const Cfg exp1 = Exp1Config(8, config::CcAlgorithm::kTwoPhaseLocking, 8);
  const std::set<std::uint64_t> keys = {
      key(exp1, [](Cfg&) {}),
      key(exp1, [](Cfg& c) { c.run.enable_audit = true; }),
      key(exp1, [](Cfg& c) { c.workload.fake_restarts = true; }),
      key(exp1, [](Cfg& c) { c.run.rt_batch_size = 1; }),
  };
  EXPECT_EQ(keys.size(), 4u);
}

TEST(ResultCache, MissThenHit) {
  TempDir dir;
  ResultCache cache(dir.str());
  auto cfg = test::SmallConfig(config::CcAlgorithm::kNoDc, 5.0);
  EXPECT_FALSE(cache.Load(cfg).has_value());
  cache.Store(cfg, SampleResult());
  auto hit = cache.Load(cfg);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->throughput, 10.25);
}

TEST(ResultCache, DistinguishesConfigs) {
  TempDir dir;
  ResultCache cache(dir.str());
  auto cfg1 = test::SmallConfig(config::CcAlgorithm::kNoDc, 5.0);
  auto cfg2 = test::SmallConfig(config::CcAlgorithm::kNoDc, 6.0);
  cache.Store(cfg1, SampleResult());
  EXPECT_TRUE(cache.Load(cfg1).has_value());
  EXPECT_FALSE(cache.Load(cfg2).has_value());
}

TEST(ResultCache, GetOrRunRunsOnceThenReuses) {
  TempDir dir;
  ResultCache cache(dir.str());
  auto cfg = test::SmallConfig(config::CcAlgorithm::kNoDc, 5.0);
  cfg.run.warmup_sec = 5;
  cfg.run.measure_sec = 20;
  auto first = cache.GetOrRun(cfg);
  auto second = cache.GetOrRun(cfg);
  EXPECT_EQ(first.commits, second.commits);
  EXPECT_DOUBLE_EQ(first.mean_response_time, second.mean_response_time);
}

TEST(Experiments, ThinkTimeGridsMatchPaperRange) {
  auto grid = PaperThinkTimes();
  EXPECT_EQ(grid.front(), 0.0);
  EXPECT_EQ(grid.back(), 120.0);
  EXPECT_GE(grid.size(), 10u);
  auto fine = FineThinkTimes();
  EXPECT_GT(fine.size(), grid.size());
}

TEST(Experiments, Exp1MatchesSection42) {
  auto cfg = Exp1Config(8, config::CcAlgorithm::kOptimistic, 12.0);
  EXPECT_EQ(cfg.Validate(), "");
  EXPECT_EQ(cfg.machine.num_proc_nodes, 8);
  EXPECT_EQ(cfg.placement.degree, 8);
  EXPECT_EQ(cfg.database.pages_per_file, 300);
  EXPECT_EQ(cfg.algorithm, config::CcAlgorithm::kOptimistic);
  EXPECT_DOUBLE_EQ(cfg.workload.think_time_sec, 12.0);
  EXPECT_DOUBLE_EQ(cfg.costs.inst_per_startup, 2000);
  EXPECT_DOUBLE_EQ(cfg.costs.inst_per_msg, 1000);

  for (int nodes : {1, 2, 4, 8}) {
    EXPECT_EQ(Exp1Config(nodes, config::CcAlgorithm::kNoDc, 0).Validate(), "");
  }
}

TEST(Experiments, Exp2MatchesSection43) {
  for (int degree : {1, 8}) {
    for (int pages : {300, 1200}) {
      auto cfg =
          Exp2Config(degree, pages, config::CcAlgorithm::kTwoPhaseLocking, 8);
      EXPECT_EQ(cfg.Validate(), "");
      EXPECT_EQ(cfg.machine.num_proc_nodes, 8);
      EXPECT_EQ(cfg.placement.degree, degree);
      EXPECT_EQ(cfg.database.pages_per_file, pages);
    }
  }
}

TEST(Experiments, Exp3MatchesSection44) {
  for (int degree : {1, 2, 4, 8}) {
    auto cfg = Exp3Config(degree, 0, 4000, config::CcAlgorithm::kWoundWait, 0);
    EXPECT_EQ(cfg.Validate(), "");
    EXPECT_DOUBLE_EQ(cfg.costs.inst_per_startup, 0);
    EXPECT_DOUBLE_EQ(cfg.costs.inst_per_msg, 4000);
    EXPECT_EQ(cfg.database.pages_per_file, 300);
  }
}

TEST(Sweep, RunGridProducesAllPointsAndCaches) {
  TempDir dir;
  ResultCache cache(dir.str());
  std::vector<config::CcAlgorithm> algs{config::CcAlgorithm::kNoDc};
  std::vector<double> xs{2.0, 5.0};
  int built = 0;
  auto make = [&](config::CcAlgorithm alg, double x) {
    ++built;
    auto cfg = test::SmallConfig(alg, x);
    cfg.run.warmup_sec = 5;
    cfg.run.measure_sec = 20;
    return cfg;
  };
  auto points = RunGrid(cache, algs, xs, make, /*verbose=*/false);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_GT(At(points, config::CcAlgorithm::kNoDc, 2.0).commits, 0u);
  // Second pass: all hits, identical values.
  auto again = RunGrid(cache, algs, xs, make, false);
  EXPECT_EQ(At(again, config::CcAlgorithm::kNoDc, 5.0).commits,
            At(points, config::CcAlgorithm::kNoDc, 5.0).commits);
}

TEST(Report, TableContainsAlgorithmsAndValues) {
  std::ostringstream out;
  PrintTable(out, "Figure X", "think", {0.0, 8.0},
             {config::CcAlgorithm::kTwoPhaseLocking,
              config::CcAlgorithm::kOptimistic},
             [](config::CcAlgorithm alg, double x) {
               return (alg == config::CcAlgorithm::kOptimistic ? 100.0 : 1.0) +
                      x;
             });
  std::string text = out.str();
  EXPECT_NE(text.find("Figure X"), std::string::npos);
  EXPECT_NE(text.find("2PL"), std::string::npos);
  EXPECT_NE(text.find("OPT"), std::string::npos);
  EXPECT_NE(text.find("108.000"), std::string::npos);
  EXPECT_NE(text.find("1.000"), std::string::npos);
}

TEST(Report, CsvShape) {
  std::ostringstream out;
  PrintCsv(out, "x", {1.0}, {config::CcAlgorithm::kWoundWait},
           [](config::CcAlgorithm, double) { return 2.5; });
  EXPECT_EQ(out.str(), "x,WW\n1,2.5\n");
}

TEST(Report, WriteCsvFileCreatesDirectoriesAndContent) {
  TempDir dir;
  std::string path = dir.str() + "/nested/fig.csv";
  ASSERT_TRUE(WriteCsvFile(path, "x", {3.0},
                           {config::CcAlgorithm::kTwoPhaseLocking},
                           [](config::CcAlgorithm, double) { return 7.0; }));
  std::ifstream in(path);
  ASSERT_TRUE(static_cast<bool>(in));
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,2PL");
  std::getline(in, line);
  EXPECT_EQ(line, "3,7");
}

}  // namespace
}  // namespace ccsim::experiments
