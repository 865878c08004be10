// Polynomial-coded Hessian execution with and without S2C2 (paper §5 and
// §7.2.3): H = Aᵀ diag(x) A over n workers, a x a block decomposition,
// decode from any a² = required_responses() workers per output row.
//
// The kPoly strategy allocates output-row chunks proportionally to
// predicted speeds with coverage exactly a² (the same allocator as the
// MDS case — the whole point of §5 is that S2C2 is code-agnostic), plus
// the same timeout/reassignment recovery. kPolyConventional assigns every
// worker its full output and waits for the fastest a².
//
// The round lifecycle lives in core::RoundExecutor; this class is reduced
// to the polynomial-coding ingredients: the a² quorum, the fixed
// diag(x)·B̃ pre-scaling in the cost model (a per-round cost S2C2 cannot
// squeeze), the Vandermonde decode subsets/context, and the numeric
// Hessian decode. The master's decode is a dense a²-system solve over
// every Hessian entry — both reasons measured poly gains trail the ideal
// (n - a²)/a². Construct directly, or through make_engine in
// engine_factory.h.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/coding/poly_code.h"
#include "src/core/round_executor.h"
#include "src/core/strategy_config.h"

namespace s2c2::core {

struct PolyEngineConfig {
  /// kPoly (S2C2 allocation + §4.3 recovery) or kPolyConventional.
  StrategyKind strategy = StrategyKind::kPoly;
  std::size_t chunks_per_partition = 24;
  double timeout_factor = 1.15;
  bool oracle_speeds = false;
  /// Scale predictions by the health monitor's degradation factor
  /// (telemetry/health_monitor.h). Changes allocations, so the pinned
  /// honest-cluster fingerprints keep it off.
  bool health_informed = false;
};

class PolyCodedEngine final : public RoundExecutor {
 public:
  /// Functional: encodes `a_mat` (N x d). Cost-only: pass std::nullopt with
  /// explicit dims.
  PolyCodedEngine(std::optional<linalg::Matrix> a_mat, std::size_t n_rows,
                  std::size_t d_cols, std::size_t a_blocks, ClusterSpec spec,
                  PolyEngineConfig config,
                  std::unique_ptr<predict::SpeedPredictor> predictor =
                      nullptr);

  [[nodiscard]] const coding::PolyCode& code() const noexcept { return code_; }

  /// Decode telemetry across rounds (structured Vandermonde solves via
  /// coding/decode_context.h; cost model in docs/PERFORMANCE.md).
  [[nodiscard]] coding::DecodeContextStats decode_stats() const override {
    return decode_ctx_.stats();
  }

 protected:
  // RoundExecutor hooks (see round_executor.h for the lifecycle).
  [[nodiscard]] std::size_t quorum() const override {
    return code_.required_responses();  // a²
  }
  [[nodiscard]] std::size_t x_bytes() const override { return n_rows_ * 8; }
  [[nodiscard]] std::size_t chunk_result_bytes() const override {
    return rows_per_chunk_ * out_cols_ * 8;
  }
  [[nodiscard]] double chunk_flops() const override { return chunk_flops_; }
  [[nodiscard]] double fixed_work() const override { return pre_work_; }
  [[nodiscard]] bool recovery_survives_death() const override { return false; }
  [[nodiscard]] const char* quorum_failure_error() const override {
    return "cluster failure: fewer than a^2 responders";
  }
  [[nodiscard]] std::string recovery_infeasible_error(
      const char* what) const override {
    // An infeasible recovery is a cluster failure (data for the scenario
    // matrix), not a caller error.
    return std::string("cluster failure: poly recovery infeasible: ") + what;
  }
  [[nodiscard]] const char* recovery_death_error() const override {
    return "cluster failure during poly recovery";
  }
  [[nodiscard]] coding::DecodeContext& decode_context() override {
    return decode_ctx_;
  }
  void decode_subsets(const RoundState& round,
                      std::vector<std::vector<std::size_t>>& out)
      const override;
  [[nodiscard]] std::size_t decode_values_per_chunk() const override {
    return rows_per_chunk_ * out_cols_;
  }
  [[nodiscard]] bool functional_round(
      std::span<const double> x) const override {
    return !operands_.empty() && !x.empty();
  }
  void decode_product(RoundResult& result, const RoundState& round,
                      std::span<const double> x) override;

 private:
  coding::PolyCode code_;
  /// Persists across rounds; Vandermonde backend over code_'s points.
  coding::DecodeContext decode_ctx_;
  std::size_t n_rows_;          // N
  std::size_t d_cols_;          // d
  std::size_t out_rows_;        // d / a (padded to chunk multiple)
  std::size_t out_cols_;        // d / a
  std::size_t rows_per_chunk_;  // out_rows_ / chunks_per_partition
  double pre_work_ = 0.0;     // fixed diag(x)·B̃ scaling per round
  double chunk_flops_ = 0.0;  // per-chunk block-product flops
  std::vector<coding::PolyCode::WorkerOperands> operands_;  // functional
};

}  // namespace s2c2::core
