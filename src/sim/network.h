// Point-to-point network cost model.
//
// Full-duplex independent master<->worker links (switch fabric, as in the
// paper's InfiniBand cluster and cloud VPC): a message costs a fixed
// per-message latency plus bytes/bandwidth. Broadcast of the input vector
// is modelled as parallel unicasts (the paper's implementation sends x to
// every worker each iteration).
#pragma once

#include <cstddef>

#include "src/sim/time.h"

namespace s2c2::sim {

struct NetworkModel {
  Time latency_s = 1e-3;        // per-message latency
  double bytes_per_s = 1.25e9;  // ~10 Gb/s default

  [[nodiscard]] Time transfer_time(std::size_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bytes_per_s;
  }

  /// Cost of moving a whole data partition (replication / migration paths —
  /// this is what puts data movement on the critical path in Figs 6/7).
  [[nodiscard]] Time partition_move_time(std::size_t bytes) const {
    return transfer_time(bytes);
  }
};

}  // namespace s2c2::sim
