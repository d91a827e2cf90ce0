#ifndef CCSIM_STATS_TIME_WEIGHTED_H_
#define CCSIM_STATS_TIME_WEIGHTED_H_

#include "ccsim/sim/time.h"

namespace ccsim::stats {

/// Time-weighted average of a piecewise-constant signal (queue length,
/// busy/idle state). Utilization of a server is the time-weighted average of
/// its 0/1 busy indicator.
class TimeWeighted {
 public:
  explicit TimeWeighted(double initial_value = 0.0)
      : value_(initial_value) {}

  /// Records that the signal changed to `value` at time `now`. Integrates the
  /// previous value over [last_change, now).
  void Set(sim::SimTime now, double value);

  /// Adds `delta` to the current value at time `now`.
  void Add(sim::SimTime now, double delta);

  /// Restarts integration at `now`, keeping the current value (warmup
  /// deletion).
  void Reset(sim::SimTime now);

  /// Time-weighted mean over [reset_time, now].
  double Mean(sim::SimTime now) const;

  double current() const { return value_; }

 private:
  double value_;
  double integral_ = 0.0;
  sim::SimTime start_ = 0.0;
  sim::SimTime last_ = 0.0;
};

}  // namespace ccsim::stats

#endif  // CCSIM_STATS_TIME_WEIGHTED_H_
