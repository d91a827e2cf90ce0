#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ccsim/sim/check.h"
#include "ccsim/stats/batch_means.h"
#include "ccsim/stats/latency_histogram.h"
#include "ccsim/stats/tally.h"
#include "ccsim/stats/time_weighted.h"

namespace ccsim::stats {
namespace {

// --- Tally ------------------------------------------------------------------

TEST(Tally, EmptyIsZero) {
  Tally t;
  EXPECT_EQ(t.count(), 0u);
  EXPECT_EQ(t.mean(), 0.0);
  EXPECT_EQ(t.variance(), 0.0);
  EXPECT_EQ(t.min(), 0.0);
  EXPECT_EQ(t.max(), 0.0);
}

TEST(Tally, SingleObservation) {
  Tally t;
  t.Record(3.5);
  EXPECT_EQ(t.count(), 1u);
  EXPECT_DOUBLE_EQ(t.mean(), 3.5);
  EXPECT_DOUBLE_EQ(t.variance(), 0.0);
  EXPECT_DOUBLE_EQ(t.min(), 3.5);
  EXPECT_DOUBLE_EQ(t.max(), 3.5);
}

TEST(Tally, KnownMeanAndVariance) {
  Tally t;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) t.Record(x);
  EXPECT_DOUBLE_EQ(t.mean(), 5.0);
  EXPECT_NEAR(t.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(t.min(), 2.0);
  EXPECT_DOUBLE_EQ(t.max(), 9.0);
  EXPECT_DOUBLE_EQ(t.sum(), 40.0);
}

TEST(Tally, ResetClearsEverything) {
  Tally t;
  t.Record(1.0);
  t.Record(2.0);
  t.Reset();
  EXPECT_EQ(t.count(), 0u);
  EXPECT_EQ(t.mean(), 0.0);
  t.Record(10.0);
  EXPECT_DOUBLE_EQ(t.mean(), 10.0);
}

TEST(Tally, NumericallyStableAroundLargeOffsets) {
  Tally t;
  for (int i = 0; i < 1000; ++i) t.Record(1e9 + (i % 2));
  EXPECT_NEAR(t.mean(), 1e9 + 0.5, 1e-3);
  EXPECT_NEAR(t.variance(), 0.25025, 1e-3);
}

// --- TimeWeighted -----------------------------------------------------------

TEST(TimeWeighted, PiecewiseConstantMean) {
  TimeWeighted tw(0.0);
  tw.Set(2.0, 1.0);   // 0 over [0,2)
  tw.Set(6.0, 3.0);   // 1 over [2,6)
  EXPECT_DOUBLE_EQ(tw.Mean(10.0), (0 * 2 + 1 * 4 + 3 * 4) / 10.0);
}

TEST(TimeWeighted, InitialValueCounts) {
  TimeWeighted tw(5.0);
  EXPECT_DOUBLE_EQ(tw.Mean(4.0), 5.0);
}

TEST(TimeWeighted, AddAdjustsCurrentValue) {
  TimeWeighted tw(0.0);
  tw.Add(1.0, 2.0);
  tw.Add(3.0, -1.0);
  EXPECT_DOUBLE_EQ(tw.current(), 1.0);
  EXPECT_DOUBLE_EQ(tw.Mean(4.0), (0 * 1 + 2 * 2 + 1 * 1) / 4.0);
}

TEST(TimeWeighted, ResetKeepsValueRestartsWindow) {
  TimeWeighted tw(0.0);
  tw.Set(5.0, 1.0);
  tw.Reset(10.0);
  EXPECT_DOUBLE_EQ(tw.current(), 1.0);
  EXPECT_DOUBLE_EQ(tw.Mean(20.0), 1.0);  // constant 1 since reset
}

TEST(TimeWeighted, ZeroElapsedReturnsCurrent) {
  TimeWeighted tw(2.5);
  EXPECT_DOUBLE_EQ(tw.Mean(0.0), 2.5);
}

TEST(TimeWeighted, UtilizationOfBusyIndicator) {
  TimeWeighted busy(0.0);
  busy.Set(1.0, 1.0);
  busy.Set(3.0, 0.0);
  busy.Set(5.0, 1.0);
  busy.Set(6.0, 0.0);
  EXPECT_DOUBLE_EQ(busy.Mean(10.0), 0.3);
}

// --- BatchMeans -------------------------------------------------------------

TEST(BatchMeans, MeanFallsBackToRunningMeanBeforeFirstBatch) {
  BatchMeans bm(100);
  bm.Record(2.0);
  bm.Record(4.0);
  EXPECT_DOUBLE_EQ(bm.mean(), 3.0);
  EXPECT_EQ(bm.num_batches(), 0u);
  EXPECT_EQ(bm.half_width_95(), 0.0);
}

TEST(BatchMeans, BatchesFormAtBatchSize) {
  BatchMeans bm(2);
  for (double x : {1.0, 3.0, 5.0, 7.0}) bm.Record(x);
  EXPECT_EQ(bm.num_batches(), 2u);  // means 2 and 6
  EXPECT_DOUBLE_EQ(bm.mean(), 4.0);
}

TEST(BatchMeans, ConstantDataHasZeroHalfWidth) {
  BatchMeans bm(5);
  for (int i = 0; i < 50; ++i) bm.Record(3.0);
  EXPECT_DOUBLE_EQ(bm.half_width_95(), 0.0);
}

TEST(BatchMeans, HalfWidthMatchesTwoBatchFormula) {
  BatchMeans bm(1);
  bm.Record(1.0);
  bm.Record(3.0);
  // n=2 batches, mean 2, s^2 = 2, hw = t(1df) * sqrt(2/2) = 12.706.
  EXPECT_NEAR(bm.half_width_95(), 12.706, 1e-9);
}

TEST(BatchMeans, HalfWidthShrinksWithMoreBatches) {
  BatchMeans bm(10);
  // Alternating values: batch means all equal after full batches, so use a
  // noisy pattern instead.
  for (int i = 0; i < 100; ++i) bm.Record(i % 7);
  double hw100 = bm.half_width_95();
  for (int i = 0; i < 900; ++i) bm.Record(i % 7);
  EXPECT_LT(bm.half_width_95(), hw100 + 1e-12);
}

TEST(BatchMeans, MeanUsesAllObservationsIncludingPartialBatch) {
  // Regression: mean() used to average completed batch means only, silently
  // dropping the in-progress partial batch once one full batch existed.
  BatchMeans bm(2);
  bm.Record(1.0);
  bm.Record(3.0);  // completes batch {1, 3}
  bm.Record(5.0);  // partial batch, previously ignored by mean()
  EXPECT_EQ(bm.num_batches(), 1u);
  EXPECT_DOUBLE_EQ(bm.mean(), 3.0);  // (1 + 3 + 5) / 3, not 2.0
}

TEST(BatchMeans, HalfWidthUsesCompleteBatchesOnly) {
  BatchMeans bm(2);
  for (double x : {1.0, 3.0, 5.0, 7.0}) bm.Record(x);  // batch means 2, 6
  // n=2 batches, grand 4, s^2 = 8, hw = 12.706 * sqrt(8/2) = 25.412.
  double hw = bm.half_width_95();
  EXPECT_NEAR(hw, 25.412, 1e-9);
  bm.Record(100.0);  // partial batch moves mean() but must not move the CI
  EXPECT_NEAR(bm.half_width_95(), hw, 1e-12);
  EXPECT_DOUBLE_EQ(bm.mean(), 116.0 / 5.0);
}

TEST(BatchMeans, ResetClears) {
  BatchMeans bm(2);
  bm.Record(1.0);
  bm.Record(2.0);
  bm.Reset();
  EXPECT_EQ(bm.observations(), 0u);
  EXPECT_EQ(bm.num_batches(), 0u);
  EXPECT_EQ(bm.mean(), 0.0);
}

TEST(BatchMeans, RelativeHalfWidth) {
  BatchMeans bm(1);
  bm.Record(9.0);
  bm.Record(11.0);
  EXPECT_NEAR(bm.relative_half_width_95(), bm.half_width_95() / 10.0, 1e-12);
}

// --- LatencyHistogram -------------------------------------------------------

// Deterministic xorshift64* generator for test sample streams (std::rand and
// random_device are banned by ccsim_analyze; determinism matters for CI).
class TestRng {
 public:
  explicit TestRng(std::uint64_t seed) : state_(seed) {}
  double NextUnit() {  // uniform in (0, 1)
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    std::uint64_t bits = state_ * 0x2545F4914F6CDD1Dull;
    return (static_cast<double>(bits >> 11) + 0.5) / 9007199254740992.0;
  }

 private:
  std::uint64_t state_;
};

TEST(LatencyHistogram, EmptyIsZero) {
  LatencyHistogram h(-20, 13);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_FALSE(h.saturated());
}

TEST(LatencyHistogram, BucketEdgesArePowerOfTwoSubdivisions) {
  LatencyHistogram h(0, 2);  // [1, 4), two octaves
  EXPECT_EQ(h.num_buckets(),
            static_cast<std::size_t>(2 * LatencyHistogram::kSubBuckets));
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(0), 1.0 + 1.0 / LatencyHistogram::kSubBuckets);
  // First bucket of the second octave starts exactly at 2.
  EXPECT_DOUBLE_EQ(h.bucket_lo(LatencyHistogram::kSubBuckets), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(2 * LatencyHistogram::kSubBuckets - 1), 4.0);
}

TEST(LatencyHistogram, RecordPlacesSamplesInTheirBucket) {
  LatencyHistogram h(0, 2);
  h.Record(1.0);   // first bucket, lower edge
  h.Record(2.0);   // first bucket of octave 1
  h.Record(3.999); // last bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kSubBuckets), 1u);
  EXPECT_EQ(h.bucket_count(2 * LatencyHistogram::kSubBuckets - 1), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.999);
}

TEST(LatencyHistogram, UnderflowOverflowAndSaturation) {
  LatencyHistogram h(0, 2);  // [1, 4)
  h.Record(0.25);
  h.Record(2.0);
  h.Record(100.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_TRUE(h.saturated());
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // The top quantile lands in the overflow region: the tracked true max is
  // reported, never a fabricated range edge.
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 100.0);
  // The bottom quantile lands in the underflow region: tracked true min.
  EXPECT_DOUBLE_EQ(h.Quantile(0.01), 0.25);
}

TEST(LatencyHistogram, NonFiniteSamplesNeverReachTheBins) {
  if (sim::kAuditEnabled) {
    LatencyHistogram h(-20, 13);
    EXPECT_DEATH(h.Record(std::numeric_limits<double>::quiet_NaN()),
                 "non-finite");
  } else {
    LatencyHistogram h(-20, 13);
    h.Record(std::numeric_limits<double>::quiet_NaN());
    h.Record(std::numeric_limits<double>::infinity());
    h.Record(1.0);
    EXPECT_EQ(h.nonfinite(), 2u);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.max(), 1.0);
  }
}

TEST(LatencyHistogram, QuantileRelativeErrorBoundOnMillionSamples) {
  // Acceptance bound from ISSUE 7: every reported quantile within 2%
  // relative of the exact sorted-sample quantile on a 10^6-sample stream
  // spanning several orders of magnitude (lognormal-ish via exp of a sum of
  // uniforms, range roughly 1 ms .. 100 s).
  TestRng rng(0x9E3779B97F4A7C15ull);
  LatencyHistogram h(-20, 13);
  std::vector<double> samples;
  const int kN = 1'000'000;
  samples.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    double z = 0.0;
    for (int k = 0; k < 4; ++k) z += rng.NextUnit();
    double x = 0.05 * std::exp(2.0 * (z - 2.0));  // median 50 ms, heavy tail
    samples.push_back(x);
    h.Record(x);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999, 0.9999}) {
    double exact =
        samples[static_cast<std::size_t>(q * (kN - 1))];
    double approx = h.Quantile(q);
    EXPECT_NEAR(approx, exact, 0.02 * exact) << "q=" << q;
  }
}

TEST(LatencyHistogram, ResetClears) {
  LatencyHistogram h(0, 2);
  h.Record(0.5);
  h.Record(1.5);
  h.Record(50.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.nonfinite(), 0u);
  EXPECT_FALSE(h.saturated());
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  h.Record(2.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 2.0);
}

}  // namespace
}  // namespace ccsim::stats
