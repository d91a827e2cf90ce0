#ifndef CCSIM_STATS_LATENCY_HISTOGRAM_H_
#define CCSIM_STATS_LATENCY_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace ccsim::stats {

/// Log-bucketed latency histogram (HdrHistogram-style), built for response
/// times whose interesting structure spans many orders of magnitude: fixed
/// memory, O(1) Record, mergeable across runs, and quantiles with a bounded
/// *relative* error everywhere in range (unlike a fixed-width histogram,
/// whose absolute bin width is useless for sub-second tails under a
/// 1000-second range).
///
/// Bucketing: the representable range [2^min_exp2, 2^max_exp2) is split
/// into power-of-two octaves, each divided into kSubBuckets equal-width
/// sub-buckets, so bucket boundaries sit at 2^e * (1 + j/kSubBuckets).
/// With kSubBuckets = 64 a bucket is at most 1/64 ~ 1.6% wide relative to
/// its lower edge; quantiles interpolate linearly inside the bucket and are
/// clamped to the tracked true min/max, so the relative quantile error is
/// <= 1/64 < 2% (typically far better). Decomposition uses std::frexp and
/// exact power-of-two arithmetic only, so bucket choice (and therefore
/// every quantile) is bit-deterministic across runs and platforms.
///
/// Out-of-range and pathological samples never alias into the range:
/// samples below the range land in an underflow counter, samples at or
/// above the top in an overflow counter (both still feed min/max and the
/// quantile walk), and non-finite samples land in a dedicated nonfinite
/// counter (a CCSIM_DCHECK failure under audit builds - a NaN response
/// time is always a simulator bug).
class LatencyHistogram {
 public:
  /// Sub-buckets per power-of-two octave; see the error bound above.
  static constexpr int kSubBuckets = 64;

  /// Covers [2^min_exp2, 2^max_exp2). Both exponents are powers of two of
  /// *seconds* when used for response times; the default engine range is
  /// (-20, 13): ~0.95 us to 8192 s.
  LatencyHistogram(int min_exp2, int max_exp2);

  void Record(double x);
  void Reset();

  /// Finite samples recorded (in-range + underflow + overflow).
  std::uint64_t count() const { return count_; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  /// Non-finite samples rejected (NaN / +-inf); never part of count().
  std::uint64_t nonfinite() const { return nonfinite_; }
  /// True when tail mass fell past the top of the range; quantiles landing
  /// there report the tracked true max instead of a fabricated edge.
  bool saturated() const { return overflow_ > 0; }

  /// Smallest / largest finite sample recorded (0 when empty). Exact, not
  /// bucket-quantized: quantile results are clamped to these.
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  std::size_t num_buckets() const { return bins_.size(); }
  std::uint64_t bucket_count(std::size_t i) const { return bins_[i]; }
  double bucket_lo(std::size_t i) const;
  double bucket_hi(std::size_t i) const;

  /// Approximate quantile, q in [0, 1]: linear interpolation inside the
  /// landing bucket, clamped to [min(), max()]. Quantiles that land in the
  /// underflow (overflow) region return the tracked min (max). 0 when no
  /// finite sample was recorded.
  double Quantile(double q) const;

 private:
  int min_exp2_;
  int max_exp2_;
  double lo_;  // 2^min_exp2
  std::vector<std::uint64_t> bins_;
  std::uint64_t count_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t nonfinite_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace ccsim::stats

#endif  // CCSIM_STATS_LATENCY_HISTOGRAM_H_
