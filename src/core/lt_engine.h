// LtCodedEngine — rateless LT-coded matrix-vector execution behind
// StrategyKind::kLt (Mallick et al., PAPERS.md; coding/lt_code.h).
//
// Where every MDS-family engine waits for a fixed quorum of k responders,
// the LT engine's quorum is a decoding *threshold over accumulated coded
// symbols*: each worker holds chunks_per_partition coded symbols (random
// source-block sums from the robust-soliton distribution), every
// responder's symbols count regardless of identity, and the master stops
// as soon as the accumulated symbol count crosses (1 + overhead) x sources
// AND the symbols' peel plan closes — extending by whole responders past
// the minimum when peeling would stall unrecoverably. The stopping rule
// plugs into RoundExecutor's conventional-collection path through the
// collection_count hook; allocation is prediction-blind full partitions
// (the code's redundancy, not the allocator, absorbs stragglers — the
// paper's near-perfect load-balancing claim, and the natural adversary for
// S2C2's adaptive allocation in the scenario matrix).
//
// Geometry: sources m ~ k * chunks / (1 + overhead) row blocks of
// rows_per_chunk rows (zero-padded at the tail), so a quorum-worth of
// symbols decodes and per-worker storage stays within ~overhead of the
// MDS partition. Decode charges flow through coding::DecodeContext's LT
// backend: cached peel plans, edge-sweep solve cost, dense-LU stalled
// tail. The simulator delivers a worker's response atomically, so the
// per-symbol rule advances in whole-responder steps of chunks_per_partition
// symbols (docs/DESIGN.md §9).
//
// Not Byzantine-tolerant: the threshold collection has no over-provisioned
// verification margin, so construction on a Byzantine cluster throws the
// deterministic cluster-failure error the harness records as a failed cell.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/coding/decode_context.h"
#include "src/coding/lt_code.h"
#include "src/core/round_executor.h"
#include "src/core/strategy_config.h"
#include "src/linalg/matrix.h"
#include "src/linalg/sparse.h"

namespace s2c2::core {

struct LtEngineConfig {
  /// MDS-equivalent storage parameter: the source budget is
  /// ~ k * chunks_per_partition / (1 + soliton.overhead) blocks.
  std::size_t k = 0;
  std::size_t chunks_per_partition = 24;
  bool oracle_speeds = false;
  bool health_informed = false;
  /// Symbol-graph seed — the harness derives it from the cell/job salt so
  /// every shard sees the identical code.
  std::uint64_t code_seed = 0x5eedc0deULL;
  coding::RobustSolitonConfig soliton;
};

class LtCodedEngine final : public RoundExecutor {
 public:
  /// Operator pointers are borrowed (at most one non-null) and must
  /// outlive the engine; both null runs cost-only over rows x cols.
  /// `predictor` feeds misprediction telemetry only — the allocation is
  /// prediction-blind.
  LtCodedEngine(const linalg::Matrix* dense, const linalg::CsrMatrix* sparse,
                std::size_t rows, std::size_t cols, ClusterSpec spec,
                LtEngineConfig config,
                std::unique_ptr<predict::SpeedPredictor> predictor = nullptr);

  [[nodiscard]] const coding::LtCode& code() const noexcept { return code_; }
  [[nodiscard]] std::size_t rows_per_chunk() const noexcept {
    return rows_per_chunk_;
  }

  [[nodiscard]] coding::DecodeContextStats decode_stats() const override {
    return decode_ctx_.stats();
  }

 protected:
  // RoundExecutor hooks (lifecycle in round_executor.h).
  [[nodiscard]] std::size_t quorum() const override {
    return code_.min_workers();
  }
  [[nodiscard]] std::size_t x_bytes() const override {
    return data_cols_ * sizeof(double);
  }
  [[nodiscard]] std::size_t chunk_result_bytes() const override {
    return rows_per_chunk_ * sizeof(double);
  }
  [[nodiscard]] double chunk_flops() const override { return chunk_flops_; }
  void allocate_into(std::span<const double> speeds,
                     sched::Allocation& out) override;
  [[nodiscard]] std::size_t collection_count(
      std::span<const std::size_t> by_response,
      std::size_t finite) const override;
  [[nodiscard]] const char* quorum_failure_error() const override {
    return "cluster failure: too few responders to reach the LT decode "
           "threshold";
  }
  [[nodiscard]] coding::DecodeContext& decode_context() override {
    return decode_ctx_;
  }
  void decode_subsets(const RoundState& round,
                      std::vector<std::vector<std::size_t>>& out)
      const override;
  [[nodiscard]] std::size_t decode_values_per_chunk() const override {
    return rows_per_chunk_;
  }
  [[nodiscard]] bool functional_round(
      std::span<const double> x) const override {
    return !blocks_.empty() && !x.empty();
  }
  [[nodiscard]] bool functional_block_round(
      const linalg::Matrix& x_block) const override {
    return !blocks_.empty() && !x_block.empty();
  }
  void decode_product(RoundResult& result, const RoundState& round,
                      std::span<const double> x) override;
  void decode_product_block(RoundResult& result, const RoundState& round,
                            const linalg::Matrix& x_block) override;

 private:
  /// Decodes the used responders' symbols into result (vector or block).
  void decode_into(RoundResult& result, const RoundState& round,
                   std::span<const double> x, const linalg::Matrix* x_block,
                   std::size_t width);

  std::size_t data_rows_ = 0;
  std::size_t data_cols_ = 0;
  std::size_t rows_per_chunk_ = 0;
  double chunk_flops_ = 0.0;
  coding::LtCode code_;
  /// Borrows code_ (declared after it, never rebound); persists across
  /// rounds so repeated responder sets replay a cached peel plan.
  coding::DecodeContext decode_ctx_;
  /// Encoded symbol blocks (rows_per_chunk x data_cols each), materialized
  /// once at setup like the MDS engine's encoded partitions; empty in
  /// cost-only mode.
  std::vector<linalg::Matrix> blocks_;
};

}  // namespace s2c2::core
