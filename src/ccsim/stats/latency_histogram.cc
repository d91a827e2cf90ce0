#include "ccsim/stats/latency_histogram.h"

#include <algorithm>
#include <cmath>

#include "ccsim/sim/check.h"

namespace ccsim::stats {

namespace {

// Flat bucket index of an in-range sample, or SIZE_MAX sentinels for the
// two out-of-range regions. x = m * 2^e with m in [0.5, 1) via frexp, so
// the octave is (e - 1) and the sub-bucket is floor((m - 0.5) * 2 * kSub).
// All operations are exact power-of-two scalings and a floor, so the same
// sample always lands in the same bucket on every conforming platform.
constexpr std::size_t kUnderflowIdx = static_cast<std::size_t>(-1);
constexpr std::size_t kOverflowIdx = static_cast<std::size_t>(-2);

std::size_t BucketIndex(double x, int min_exp2, int max_exp2) {
  int e = 0;
  double m = std::frexp(x, &e);  // x = m * 2^e, m in [0.5, 1)
  int octave = e - 1;            // x in [2^octave, 2^(octave+1))
  if (octave < min_exp2) return kUnderflowIdx;
  if (octave >= max_exp2) return kOverflowIdx;
  auto sub = static_cast<std::size_t>(
      (m - 0.5) * (2.0 * LatencyHistogram::kSubBuckets));
  // (m - 0.5) * 2 is in [0, 1) exactly, but guard the boundary anyway.
  sub = std::min<std::size_t>(sub, LatencyHistogram::kSubBuckets - 1);
  return static_cast<std::size_t>(octave - min_exp2) *
             LatencyHistogram::kSubBuckets +
         sub;
}

}  // namespace

LatencyHistogram::LatencyHistogram(int min_exp2, int max_exp2)
    : min_exp2_(min_exp2),
      max_exp2_(max_exp2),
      lo_(std::ldexp(1.0, min_exp2)),
      bins_(static_cast<std::size_t>(max_exp2 - min_exp2) * kSubBuckets, 0) {
  CCSIM_CHECK(max_exp2 > min_exp2);
}

void LatencyHistogram::Record(double x) {
  if (!std::isfinite(x)) {
    CCSIM_DCHECK(false && "non-finite sample recorded into LatencyHistogram");
    ++nonfinite_;
    return;
  }
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  std::size_t idx = BucketIndex(x, min_exp2_, max_exp2_);
  if (idx == kOverflowIdx || idx == kUnderflowIdx) {
    // x >= lo_ but frexp still placed it below range only for x == lo_
    // rounding artifacts, which cannot happen for exact powers of two;
    // anything left here is past the top.
    ++overflow_;
    return;
  }
  ++bins_[idx];
}

void LatencyHistogram::Reset() {
  std::fill(bins_.begin(), bins_.end(), 0);
  count_ = underflow_ = overflow_ = nonfinite_ = 0;
  min_ = max_ = 0.0;
}

double LatencyHistogram::bucket_lo(std::size_t i) const {
  int octave = min_exp2_ + static_cast<int>(i / kSubBuckets);
  auto sub = static_cast<double>(i % kSubBuckets);
  return std::ldexp(1.0 + sub / kSubBuckets, octave);
}

double LatencyHistogram::bucket_hi(std::size_t i) const {
  int octave = min_exp2_ + static_cast<int>(i / kSubBuckets);
  auto sub = static_cast<double>(i % kSubBuckets) + 1.0;
  return std::ldexp(1.0 + sub / kSubBuckets, octave);
}

double LatencyHistogram::Quantile(double q) const {
  CCSIM_CHECK(q >= 0.0 && q <= 1.0);
  if (count_ == 0) return 0.0;
  double target = q * static_cast<double>(count_);
  double cum = static_cast<double>(underflow_);
  if (cum >= target) return min_;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    if (bins_[i] == 0) continue;
    double next = cum + static_cast<double>(bins_[i]);
    if (next >= target) {
      double frac = (target - cum) / static_cast<double>(bins_[i]);
      double v = bucket_lo(i) + frac * (bucket_hi(i) - bucket_lo(i));
      return std::clamp(v, min_, max_);
    }
    cum = next;
  }
  // The quantile lands in the overflow region (or floating-point slack at
  // q == 1): report the tracked true maximum, never a fabricated edge.
  return max_;
}

}  // namespace ccsim::stats
