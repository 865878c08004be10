// Per-worker execution-speed traces.
//
// A trace is a piecewise-constant function speed(t) >= 0 in *relative*
// units (1.0 = nominal node speed; the paper's controlled-cluster
// "straggler" is 0.2, i.e. 5x slower). The simulator needs two integrals:
//   work_between(t0,t1)      — how much work got done in a window, and
//   time_to_complete(t0, w)  — when w units of work finish if started at
//                              t0 (the inverse; +inf if the node dies).
// Both are exact for piecewise-constant traces; no numerical stepping.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "src/sim/time.h"

namespace s2c2::sim {

class SpeedTrace {
 public:
  /// Segment i spans [start_times[i], start_times[i+1]) at speeds[i];
  /// the last segment extends to +inf. start_times[0] must be 0 and the
  /// sequence strictly increasing; speeds must be >= 0.
  SpeedTrace(std::vector<Time> start_times, std::vector<double> speeds);

  static SpeedTrace constant(double speed);

  /// speed = `before` until t_change, then `after` forever.
  static SpeedTrace step(Time t_change, double before, double after);

  /// Piecewise-constant from uniformly-sampled speeds: sample i applies on
  /// [i*dt, (i+1)*dt); the last sample extends forever.
  static SpeedTrace from_samples(std::span<const double> samples, Time dt);

  [[nodiscard]] double speed_at(Time t) const;

  /// ∫_{t0}^{t1} speed(τ) dτ  (work units completed in the window).
  [[nodiscard]] double work_between(Time t0, Time t1) const;

  /// Earliest t such that work_between(t0, t) == work; +inf when the trace
  /// ends at zero speed with work remaining.
  [[nodiscard]] Time time_to_complete(Time t0, double work) const;

  static constexpr Time kNever = std::numeric_limits<Time>::infinity();

 private:
  std::vector<Time> times_;    // segment start times, times_[0] == 0
  std::vector<double> speeds_;
};

}  // namespace s2c2::sim
