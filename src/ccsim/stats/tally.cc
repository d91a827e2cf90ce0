#include "ccsim/stats/tally.h"

namespace ccsim::stats {

void Tally::Record(double x) {
  ++count_;
  if (count_ == 1) {
    mean_ = x;
    m2_ = 0.0;
    min_ = x;
    max_ = x;
    return;
  }
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

void Tally::Reset() {
  count_ = 0;
  mean_ = m2_ = min_ = max_ = 0.0;
}

double Tally::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

}  // namespace ccsim::stats
