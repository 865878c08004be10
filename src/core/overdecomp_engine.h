// Over-decomposition + speed-predicted load balancing — the paper's cloud
// baseline (§7.2, "Charm++ based over-decomposition baseline"): the data is
// split into decomposition_factor x n uncoded partitions, replicated by
// ~replication_factor, and every round the master re-balances partition
// assignments using predicted speeds. A partition may only execute on a
// worker holding a copy; otherwise it migrates first (transfer on that
// worker's critical path) and the destination keeps the copy, growing its
// storage footprint.
//
// With accurate predictions and stable speeds this baseline matches
// S2C2's latency (Fig 8); under volatile speeds its migrations put data
// movement back on the critical path and it loses (Fig 10).
//
// A StrategyEngine with bespoke dynamics: predictions drive the
// rebalancing but there is no coding and no §4.3 recovery window, so this
// engine implements run_round_impl directly instead of deriving from
// RoundExecutor. In functional mode it forwards the exact product through
// the DirectMultiply closure. Construct directly, or through make_engine
// in engine_factory.h.
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "src/core/strategy_engine.h"

namespace s2c2::core {

struct OverDecompConfig {
  std::size_t decomposition_factor = 4;  // partitions per worker
  double replication_factor = 1.42;      // ~ n/k of the matched MDS code
  bool oracle_speeds = false;
};

class OverDecompositionEngine final : public StrategyEngine {
 public:
  /// `direct` (optional) enables functional mode: run_round(x) returns
  /// the exact product direct(x). The closure's operator must outlive the
  /// engine.
  OverDecompositionEngine(std::size_t data_rows, std::size_t data_cols,
                          ClusterSpec spec, OverDecompConfig config,
                          std::unique_ptr<predict::SpeedPredictor> predictor =
                              nullptr,
                          DirectMultiply direct = {});

  /// Bytes of partition data currently stored at `worker` (grows with
  /// migrations — the storage-cost axis of the comparison).
  [[nodiscard]] std::size_t storage_bytes(std::size_t worker) const;
  [[nodiscard]] std::size_t total_migrations() const noexcept {
    return migrations_;
  }

 private:
  /// One rebalanced iteration. Task work, input broadcast, and result
  /// transfers scale by the block width (partition migrations do not —
  /// stored data); with a functional operator the exact product is
  /// forwarded.
  [[nodiscard]] RoundResult run_round_impl(std::span<const double> x,
                                           const linalg::Matrix* x_block,
                                           std::size_t width) override;

  std::size_t data_rows_;
  std::size_t data_cols_;
  OverDecompConfig config_;
  DirectMultiply direct_;
  std::vector<std::set<std::size_t>> holders_;  // per partition
  std::size_t migrations_ = 0;
  std::size_t num_partitions_ = 0;
  std::size_t partition_rows_ = 0;
};

}  // namespace s2c2::core
