// Uncoded r-replication with LATE-style speculative execution — the
// paper's first controlled-cluster baseline (§7.1: "enhanced Hadoop-like
// uncoded approach similar to LATE", 3 replicas, up to 6 speculative
// tasks, data moved only when no idle replica holder exists).
//
// The data matrix splits into n uncoded partitions; worker w is the
// primary for partition w, and each partition is additionally replicated
// on r-1 random other workers. Once a `speculation_quantile` fraction of
// tasks complete, the master speculatively relaunches the slowest
// outstanding tasks on idle workers — preferring replica holders; a
// non-holder pays the partition transfer on its critical path, which is
// what makes this baseline degrade super-linearly once the straggler
// count approaches the replication factor (Figs 1, 6, 7).
//
// A StrategyEngine with bespoke dynamics: no coding, no predictions, no
// §4.3 recovery window — the speculation race IS the collection policy,
// so this engine implements run_round_impl directly instead of deriving
// from RoundExecutor. In functional mode it forwards the exact product
// through the DirectMultiply closure (uncoded execution computes the true
// result by construction), so convergence loops drive it exactly like the
// coded engines. Construct directly, or through make_engine in
// engine_factory.h.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/strategy_engine.h"

namespace s2c2::core {

enum class Placement {
  kRoundRobin,  // partition p on workers {p, p+1, ..} — HDFS-like striping
  kRandom,      // r-1 random distinct backups per partition
};

struct ReplicationConfig {
  std::size_t replication = 3;
  std::size_t max_speculative = 6;
  double speculation_quantile = 0.25;
  Placement placement = Placement::kRoundRobin;
  std::uint64_t placement_seed = 99;
  /// false = traditional Hadoop strict locality (Fig 1's baseline): a
  /// speculative copy may only run on a replica holder, so a task whose
  /// holders are all stragglers simply waits on its primary.
  bool allow_data_movement = true;
};

class ReplicationEngine final : public StrategyEngine {
 public:
  /// `direct` (optional) enables functional mode: run_round(x) returns
  /// the exact product direct(x). The closure's operator must outlive the
  /// engine.
  ReplicationEngine(std::size_t data_rows, std::size_t data_cols,
                    ClusterSpec spec, ReplicationConfig config,
                    DirectMultiply direct = {});

  /// Replica holders of each partition (first entry = primary).
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& placement()
      const noexcept {
    return placement_;
  }

 private:
  /// One iteration. Latency comes from the simulated speculation race;
  /// task work, input broadcast, and result transfers scale by the block
  /// width. With a functional operator the exact product is forwarded (no
  /// decode — the result is uncoded).
  [[nodiscard]] RoundResult run_round_impl(std::span<const double> x,
                                           const linalg::Matrix* x_block,
                                           std::size_t width) override;

  std::size_t data_rows_;
  std::size_t data_cols_;
  ReplicationConfig config_;
  DirectMultiply direct_;
  std::vector<std::vector<std::size_t>> placement_;
};

}  // namespace s2c2::core
