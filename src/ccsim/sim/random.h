#ifndef CCSIM_SIM_RANDOM_H_
#define CCSIM_SIM_RANDOM_H_

#include <cstddef>
#include <cstdint>

namespace ccsim::sim {

/// A reproducible stream of pseudo-random variates.
///
/// Each stochastic element of the model (think times, access selection, disk
/// service, instruction counts, ...) owns its own stream, derived from the
/// run's master seed and a distinct stream id, so that changing how one model
/// component consumes randomness does not perturb the others (common random
/// numbers across configurations, as in the paper's DeNet methodology).
///
/// The generator is MT19937-64, seeded by the seed_seq expansion of four
/// SplitMix64 words, and every variate has one specified algorithm
/// (DESIGN.md decision 2). All of it is computed here rather than taken from
/// <random>, whose distribution algorithms differ between standard
/// libraries. The output is bit-identical to what the std::mt19937_64,
/// std::seed_seq and std::*_distribution composition that ccsim used before
/// gives under libstdc++ 12.
class RandomStream {
 public:
  RandomStream(std::uint64_t master_seed, std::uint64_t stream_id);

  /// Exponentially distributed variate with the given mean. A mean of zero
  /// returns 0 (the paper's "think time 0" case).
  double Exponential(double mean);

  /// Uniform real in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// True with probability p.
  bool Bernoulli(double p);

  /// Raw 64-bit output (for shuffles and sampling helpers).
  std::uint64_t Next() {
    ++draws_;
    return Draw();
  }

  /// Number of variates drawn so far. Diagnostic only (watchdog dumps report
  /// per-stream positions so a divergent replay can be localized to the
  /// first stream that consumed a different amount of randomness).
  std::uint64_t draws() const { return draws_; }

  /// The [0, 1) double every real variate starts from: `bits` x 2^-64,
  /// rounded to nearest. A draw that rounds to 1 (bits >= 2^64 - 1024) is
  /// clamped to the largest double below 1.
  static double Canonical(std::uint64_t bits);

 private:
  static constexpr std::size_t kStateWords = 312;

  /// One tempered MT19937-64 output; does not count as a variate.
  std::uint64_t Draw() {
    if (index_ >= kStateWords) Twist();
    std::uint64_t z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  /// Regenerates all kStateWords words and rewinds index_.
  void Twist();

  std::uint64_t state_[kStateWords];
  std::size_t index_ = kStateWords;  // the first draw twists
  std::uint64_t draws_ = 0;
};

}  // namespace ccsim::sim

#endif  // CCSIM_SIM_RANDOM_H_
