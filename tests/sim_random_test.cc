#include "ccsim/sim/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

// The composition RandomStream reproduces, for the differential test below.
#if defined(_GLIBCXX_RELEASE) && _GLIBCXX_RELEASE >= 11
#include <random>
#define CCSIM_TEST_LIBSTDCXX_REFERENCE 1
#endif

namespace ccsim::sim {
namespace {

constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

TEST(RandomStream, SameSeedsReproduce) {
  RandomStream a(42, 7), b(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomStream, DifferentStreamIdsDiffer) {
  RandomStream a(42, 7), b(42, 8);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 3);
}

TEST(RandomStream, DifferentMasterSeedsDiffer) {
  RandomStream a(1, 7), b(2, 7);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 3);
}

TEST(RandomStream, ExponentialMeanMatches) {
  RandomStream rng(123, 0);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(8.0);
  EXPECT_NEAR(sum / n, 8.0, 0.1);
}

TEST(RandomStream, ExponentialOfZeroMeanIsZero) {
  RandomStream rng(123, 0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.Exponential(0.0), 0.0);
}

TEST(RandomStream, ExponentialIsNonNegativeAndSpread) {
  RandomStream rng(9, 1);
  double max = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.Exponential(1.0);
    ASSERT_GE(v, 0.0);
    max = std::max(max, v);
  }
  EXPECT_GT(max, 4.0);  // the tail exists
}

TEST(RandomStream, UniformStaysInRange) {
  RandomStream rng(5, 2);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.Uniform(0.010, 0.030);
    ASSERT_GE(v, 0.010);
    ASSERT_LT(v, 0.030);
  }
}

TEST(RandomStream, UniformMeanMatches) {
  RandomStream rng(5, 2);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform(10.0, 30.0);
  EXPECT_NEAR(sum / n, 20.0, 0.1);
}

TEST(RandomStream, UniformIntCoversInclusiveRangeUniformly) {
  RandomStream rng(5, 3);
  int counts[9] = {0};  // values 4..12
  const int n = 90000;
  for (int i = 0; i < n; ++i) {
    auto v = rng.UniformInt(4, 12);
    ASSERT_GE(v, 4);
    ASSERT_LE(v, 12);
    ++counts[v - 4];
  }
  for (int c : counts) EXPECT_NEAR(c, n / 9.0, n / 9.0 * 0.1);
}

TEST(RandomStream, UniformIntDegenerateRange) {
  RandomStream rng(5, 4);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(7, 7), 7);
}

TEST(RandomStream, BernoulliFrequencyMatches) {
  RandomStream rng(11, 5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.25);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.25, 0.01);
}

TEST(RandomStream, BernoulliExtremes) {
  RandomStream rng(11, 6);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RandomStreamDeathTest, NegativeExponentialMeanIsFatal) {
  RandomStream rng(1, 1);
  EXPECT_DEATH(rng.Exponential(-1.0), "mean");
}

// Literal outputs recorded from the std::mt19937_64 / std::seed_seq /
// std::*_distribution composition of libstdc++ 12 that RandomStream
// replaced. Each row replays one stream through the same call sequence, so
// any toolchain can check itself against these without <random>.
struct KnownAnswer {
  std::uint64_t seed;
  std::uint64_t stream;
  std::uint64_t next[3];
  double exponential[4];      // means kKnownAnswerMeans
  double uniform[2];          // [0.010, 0.030), [-5.0, 7.5)
  std::int64_t small_int[2];  // [4, 12], [-1000, 1000]
  std::int64_t wide_int[4];   // [INT64_MIN, 2^62 - 1]: 3 x 2^62 values
  std::int64_t wide_int2[4];  // [0, 5 x 2^60]
  std::int64_t full_int;      // [INT64_MIN, INT64_MAX]
  bool bernoulli[3];          // p = 0.25, 0.5, 0.9
  std::uint64_t after_700;    // Next() after 700 more, past two more twists
  std::uint64_t draws;
};

constexpr double kKnownAnswerMeans[4] = {0.035, 1.0 / 3.0, 8.0, 22.5};

constexpr KnownAnswer kKnownAnswers[] = {
    {42, 0,
     {0xf653f493e1aaa8ccULL, 0x191dc108f8fc5da0ULL, 0x248206355c7ad91aULL},
     {0x1.c257560b88452p-8, 0x1.70f182b02ef5p-2, 0x1.188e97b275ec4p-1,
      0x1.00d17734ec2f2p+3},
     {0x1.8c1a8ed512399p-6, -0x1.e48ba12a4395p+0},
     {7, -279},
     {-6336253569421215656LL, -9137528397247340970LL, -8267442261407302279LL,
      -4414558464660661871LL},
     {2609682803675907223LL, 1261318665534127327LL, 5194236877710405700LL,
      5573161004562614502LL},
     -4886367747958011099LL,
     {false, true, true},
     0x8bce41b0d7e8accfULL,
     724},
    {7, 1000003,
     {0x220742e59b0a365eULL, 0x5d7c8bcc93d6c8c8ULL, 0x1965f94f0c384280ULL},
     {0x1.e67028e02efbcp-13, 0x1.245555e6dbb35p-1, 0x1.55cc0e29c2076p+1,
      0x1.f8ee02f992c07p+3},
     {0x1.d68cdd11c1818p-6, 0x1.05f7f7323affp-2},
     {10, -275},
     {-7540493053888847833LL, -2203465386826477982LL, -3185987722894264725LL,
      -1130868821334881027LL},
     {5555600489233270091LL, 767498247191939148LL, 3606321845370379040LL,
      3073270852650060732LL},
     6506003381004263553LL,
     {false, true, false},
     0xf35107829e771eaeULL,
     724},
    {0, 0,
     {0xb4a2ca68b0427a47ULL, 0x7d5b6ce4188249cdULL, 0xe4299188751f910bULL},
     {0x1.da45a4aec0634p-9, 0x1.37a09028f0082p-1, 0x1.21b6b4d1949bap+2,
      0x1.47e1dece650d9p+6},
     {0x1.e106ed79f1fb5p-7, -0x1.2cca2ec5988bp+2},
     {8, 624},
     {1964429859038927205LL, -7078098868857313034LL, -7571676244437808654LL,
      -4677422928448863312LL},
     {948939688126830044LL, 1469254109748801350LL, 2989330923291271403LL,
      3771962684739382508LL},
     -5052449846329499911LL,
     {false, true, true},
     0xcdcf3c6678a3127fULL,
     724},
    {0xffffffffffffffffULL, 200001,
     {0xa0dddf430e4b14afULL, 0x549eaef909a1c98fULL, 0x827916286093ea18ULL},
     {0x1.b4d021c76599ap-4, 0x1.1433d28998293p-2, 0x1.7778eae32e1c2p+2,
      0x1.c18c0a6338e6cp-2},
     {0x1.511ae9e906fbdp-6, 0x1.ac2f02121e8p-4},
     {4, -509},
     {-4649829878376061604LL, 2211574098720243366LL, 2522668481262335406LL,
      -803346196427858549LL},
     {248635309470576468LL, 5713157600179832362LL, 4366964896102439116LL,
      1146030659554398299LL},
     -5932514546374311395LL,
     {false, true, true},
     0x0f38ba08f1c15355ULL,
     724},
};

TEST(RandomStream, KnownAnswers) {
  for (const KnownAnswer& k : kKnownAnswers) {
    SCOPED_TRACE(testing::Message() << "seed " << k.seed << " stream "
                                    << k.stream);
    RandomStream r(k.seed, k.stream);
    for (std::uint64_t want : k.next) EXPECT_EQ(r.Next(), want);
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(r.Exponential(kKnownAnswerMeans[i]), k.exponential[i]);
    EXPECT_EQ(r.Uniform(0.010, 0.030), k.uniform[0]);
    EXPECT_EQ(r.Uniform(-5.0, 7.5), k.uniform[1]);
    EXPECT_EQ(r.UniformInt(4, 12), k.small_int[0]);
    EXPECT_EQ(r.UniformInt(-1000, 1000), k.small_int[1]);
    for (std::int64_t want : k.wide_int)
      EXPECT_EQ(r.UniformInt(kInt64Min, (std::int64_t{1} << 62) - 1), want);
    for (std::int64_t want : k.wide_int2)
      EXPECT_EQ(r.UniformInt(0, std::int64_t{5} << 60), want);
    EXPECT_EQ(r.UniformInt(kInt64Min, kInt64Max), k.full_int);
    EXPECT_EQ(r.Bernoulli(0.25), k.bernoulli[0]);
    EXPECT_EQ(r.Bernoulli(0.5), k.bernoulli[1]);
    EXPECT_EQ(r.Bernoulli(0.9), k.bernoulli[2]);
    for (int i = 0; i < 700; ++i) r.Next();
    EXPECT_EQ(r.Next(), k.after_700);
    EXPECT_EQ(r.draws(), k.draws);
  }
}

// bits x 2^-64 rounds to nearest even: 2^64 - 1025 rounds down to
// 2^64 - 2048, the largest double below 2^64, while 2^64 - 1024 (the
// midpoint) and above round up to 2^64, giving 1, which the clamp replaces.
TEST(RandomStream, CanonicalRoundsAndClampsBelowOne) {
  constexpr double kBelowOne = 0x1.fffffffffffffp-1;
  EXPECT_EQ(RandomStream::Canonical(0), 0.0);
  EXPECT_EQ(RandomStream::Canonical(1), 0x1p-64);
  EXPECT_EQ(RandomStream::Canonical(std::uint64_t{1} << 63), 0.5);
  EXPECT_EQ(RandomStream::Canonical(~std::uint64_t{0} - 1024), kBelowOne);
  EXPECT_EQ(RandomStream::Canonical(~std::uint64_t{0} - 1023), kBelowOne);
  EXPECT_EQ(RandomStream::Canonical(~std::uint64_t{0}), kBelowOne);
}

#ifdef CCSIM_TEST_LIBSTDCXX_REFERENCE

// RandomStream as it was built on <random>: the reference the differential
// test drives side by side with the real one.
class StdRandomStream {
 public:
  StdRandomStream(std::uint64_t master_seed, std::uint64_t stream_id) {
    std::uint64_t state =
        master_seed ^ (stream_id * 0xd1342543de82ef95ULL + 1);
    std::seed_seq seq{SplitMix64(state), SplitMix64(state),
                      SplitMix64(state), SplitMix64(state)};
    engine_.seed(seq);
  }

  double Exponential(double mean) {
    if (mean == 0.0) return 0.0;
    ++draws_;
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }
  double Uniform(double lo, double hi) {
    ++draws_;
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    ++draws_;
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    ++draws_;
    return std::bernoulli_distribution(p)(engine_);
  }
  std::uint64_t Next() {
    ++draws_;
    return engine_();
  }
  std::uint64_t draws() const { return draws_; }

 private:
  static std::uint64_t SplitMix64(std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::mt19937_64 engine_;
  std::uint64_t draws_ = 0;
};

// 172 streams (4 master seeds x 43 stream ids) of 2,000 calls each, every
// call's kind and parameters picked by a third generator, so the variates
// interleave on one engine as they do in the model. The parameter lists
// cover each shape the algorithms distinguish: zero and non-power-of-two
// means, empty and negative intervals, one-value, small, 2^62-and-wider
// and full integer ranges (the wide ones reject often), and p at 0, 1 and
// near either end.
TEST(RandomStreamDifferential, MatchesLibstdcxxComposition) {
  const std::uint64_t seeds[] = {42, 7, 0, 0xfedcba9876543210ULL};
  std::vector<std::uint64_t> streams;
  for (std::uint64_t id = 0; id < 16; ++id) streams.push_back(id);
  for (std::uint64_t id : {777ULL, 1000ULL, 1001ULL, 1064ULL, 5000ULL,
                           5007ULL, 8900ULL, 8901ULL, 9001ULL, 100000ULL,
                           100001ULL, 104095ULL, 200000ULL, 200001ULL})
    streams.push_back(id);
  for (std::uint64_t id = 1; streams.size() < 43; id *= 37)
    streams.push_back(id ^ 0x5555555555555555ULL);
  const double means[] = {0.0, 0.035, 1.0 / 3.0, 1.0, 8.0, 22.5, 1e-9, 1e9};
  const std::pair<double, double> intervals[] = {
      {0.010, 0.030}, {-5.0, 7.5}, {0.0, 1.0}, {3.25, 3.25}, {-1e300, 1e300}};
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {7, 7},
      {4, 12},
      {-1000, 1000},
      {0, 2},
      {0, (std::int64_t{1} << 62) - 1},
      {kInt64Min, (std::int64_t{1} << 62) - 1},
      {0, std::int64_t{5} << 60},
      {-(std::int64_t{1} << 62), std::int64_t{1} << 62},
      {kInt64Min, kInt64Max - 1},
      {kInt64Min + 1, kInt64Max},
      {kInt64Min, kInt64Max}};
  const double probabilities[] = {0.0, 1.0, 0.25, 0.5, 1e-12, 1.0 - 1e-12};

  std::mt19937_64 pick(2024);
  std::size_t calls = 0;
  for (std::uint64_t seed : seeds) {
    for (std::uint64_t id : streams) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " stream " << id);
      RandomStream got(seed, id);
      StdRandomStream want(seed, id);
      for (int i = 0; i < 2000; ++i, ++calls) {
        const std::uint64_t choice = pick();
        const std::size_t arg = choice >> 8;
        switch (choice % 5) {
          case 0:
            ASSERT_EQ(got.Next(), want.Next());
            break;
          case 1: {
            const double mean = means[arg % std::size(means)];
            ASSERT_EQ(got.Exponential(mean), want.Exponential(mean));
            break;
          }
          case 2: {
            const auto [lo, hi] = intervals[arg % std::size(intervals)];
            ASSERT_EQ(got.Uniform(lo, hi), want.Uniform(lo, hi));
            break;
          }
          case 3: {
            const auto [lo, hi] = ranges[arg % std::size(ranges)];
            ASSERT_EQ(got.UniformInt(lo, hi), want.UniformInt(lo, hi));
            break;
          }
          default: {
            const double p = probabilities[arg % std::size(probabilities)];
            ASSERT_EQ(got.Bernoulli(p), want.Bernoulli(p));
            break;
          }
        }
      }
      EXPECT_EQ(got.draws(), want.draws());
    }
  }
  EXPECT_EQ(streams.size() * std::size(seeds), 172u);
  EXPECT_EQ(calls, 344000u);
}

#endif  // CCSIM_TEST_LIBSTDCXX_REFERENCE

}  // namespace
}  // namespace ccsim::sim
