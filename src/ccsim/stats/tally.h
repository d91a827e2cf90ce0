#ifndef CCSIM_STATS_TALLY_H_
#define CCSIM_STATS_TALLY_H_

#include <cstdint>

namespace ccsim::stats {

/// Streaming sample statistics (count, mean, variance, min, max) using
/// Welford's numerically stable update. Used for observation-based metrics:
/// response times, blocking times, queue waits.
class Tally {
 public:
  Tally() = default;

  void Record(double x);

  /// Discards all recorded observations (warmup deletion).
  void Reset();

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 with fewer than two observations.
  double variance() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return count_ ? mean_ * static_cast<double>(count_) : 0.0; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace ccsim::stats

#endif  // CCSIM_STATS_TALLY_H_
