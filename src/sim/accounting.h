// Work / waste / traffic accounting (paper Figs 9 and 11).
//
// "Wasted computation" is work a worker performed that the master never
// used: a conventional-MDS response outside the fastest k, the partial
// progress of a cancelled straggler, or a speculative copy that lost its
// race. Useful work is everything that contributed to a decoded result.
#pragma once

#include <cstddef>
#include <vector>

#include "src/sim/time.h"

namespace s2c2::sim {

struct WorkerAccount {
  double useful_work = 0.0;
  double wasted_work = 0.0;
  double bytes_sent = 0.0;
  double bytes_received = 0.0;
  Time busy_time = 0.0;

  [[nodiscard]] double wasted_fraction() const {
    const double total = useful_work + wasted_work;
    return total > 0.0 ? wasted_work / total : 0.0;
  }
};

struct RoundStats {
  Time start = 0.0;
  /// Instant the master holds every response a decode needs (including
  /// recovery waves) but has not started decoding — the timestamp idle
  /// workers are speed-probed at, so all predictor observations reflect
  /// the same pre-decode window. Uncoded engines set coverage == end.
  Time coverage = 0.0;
  Time end = 0.0;                  // coverage + master decode
  bool timeout_fired = false;      // mis-prediction / failure recovery ran
  std::size_t reassigned_chunks = 0;  // §4.3 recovery volume, all waves
  std::size_t data_moves = 0;      // partition migrations (baselines)
  // Robustness telemetry (zero on honest clusters / engines without the
  // coded verification pass — see round_executor.cpp and
  // telemetry/health_monitor.h).
  std::size_t byzantine_detected = 0;  // corrupted responders identified
  std::size_t corrupted_chunks = 0;    // chunks carrying a corrupted product
  std::size_t degrading_workers = 0;   // health-monitor drift flags, post-round

  [[nodiscard]] Time latency() const { return end - start; }
};

class Accounting {
 public:
  explicit Accounting(std::size_t num_workers) : workers_(num_workers) {}

  void add_useful(std::size_t w, double work);
  void add_wasted(std::size_t w, double work);
  void add_traffic(std::size_t w, double sent, double received);
  void add_busy(std::size_t w, Time t);

  [[nodiscard]] const WorkerAccount& worker(std::size_t w) const;
  [[nodiscard]] std::size_t num_workers() const { return workers_.size(); }

  /// Mean of per-worker wasted fractions (the figures' headline number).
  [[nodiscard]] double mean_wasted_fraction() const;

  /// Total wasted work across the cluster.
  [[nodiscard]] double total_wasted() const;
  [[nodiscard]] double total_useful() const;

 private:
  std::vector<WorkerAccount> workers_;
};

}  // namespace s2c2::sim
