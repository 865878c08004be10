// Polymorphic strategy-engine interface — the one contract every
// straggler-mitigation strategy implements, coded or not.
//
// The paper's argument is comparative: S2C2 vs conventional MDS vs
// replication vs over-decomposition under identical traces. This layer
// makes the comparison structural. Every strategy is a StrategyEngine:
// `run_round(x)` advances one simulated iteration on the engine's private
// clock and returns a RoundResult; the harness, job driver, benches, and
// CLIs drive any strategy through this interface and construct them
// through make_engine in engine_factory.h. Every engine implements one
// round entry point, run_round_impl, which both run_round and
// run_round_block reach. Coded strategies share the §4.3 round lifecycle
// in round_executor.h; the uncoded baselines implement run_round_impl
// with their own dynamics (LATE speculation, partition rebalancing) but
// still forward the exact product in functional mode, so convergence
// loops are strategy-agnostic.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/coding/decode_context.h"
#include "src/core/strategy_config.h"
#include "src/linalg/matrix.h"
#include "src/predict/predictors.h"
#include "src/sim/accounting.h"
#include "src/util/thread_pool.h"

namespace s2c2::telemetry {
class HealthMonitor;
}

namespace s2c2::core {

/// One simulated round from any strategy. Which functional payload is
/// set depends on the strategy's product shape: matrix-vector strategies
/// (MDS/S2C2, uncoded baselines) fill `y`; the bilinear polynomial
/// strategies fill `hessian`. Cost-only rounds leave both empty.
struct RoundResult {
  sim::RoundStats stats;
  std::optional<linalg::Vector> y;        // decoded/exact product A·x
  std::optional<linalg::Matrix> y_block;  // decoded/exact A·X, b > 1 rounds
  std::optional<linalg::Matrix> hessian;  // decoded Aᵀ·diag(x)·A
  std::vector<double> predicted_speeds;
  std::vector<double> observed_speeds;
};

/// Exact-multiply closure the uncoded baselines use to forward the true
/// product in functional mode (uncoded execution computes the exact
/// result by construction — only its *time* needs simulating). Takes the
/// cols x b input panel (b = 1 for a plain matvec round) and returns the
/// rows x b product; column j of the result must be bitwise the matvec of
/// column j, which the matmat kernels guarantee. The closure typically
/// borrows the operator; the operator must outlive the engine.
using DirectMultiply = std::function<linalg::Matrix(const linalg::Matrix&)>;

class StrategyEngine {
 public:
  virtual ~StrategyEngine() = default;

  StrategyEngine(const StrategyEngine&) = delete;
  StrategyEngine& operator=(const StrategyEngine&) = delete;
  StrategyEngine(StrategyEngine&&) = delete;
  StrategyEngine& operator=(StrategyEngine&&) = delete;

  /// Runs one round. In functional mode pass the input vector x to obtain
  /// the product (decoded for coded strategies, exact for the uncoded
  /// baselines); with an empty span the round is latency-only. Throws
  /// std::runtime_error on unrecoverable cluster failure.
  RoundResult run_round(std::span<const double> x = {});

  /// Multi-RHS block round: one coded round whose data path carries a
  /// cols x b panel X (b = width), amortizing the per-round fixed costs —
  /// one dispatch, one collection, one cached decode factorization per
  /// responder set — across all b columns. width == 1 forwards to
  /// run_round on X's only column (bit-for-bit the single-RHS path);
  /// width > 1 requires supports_block_rounds() and goes to the engine's
  /// run_round_impl with the panel. An empty X runs a latency-only block
  /// round at the given width; otherwise the result's y_block (y at
  /// width 1) carries the product. Throws std::invalid_argument on width
  /// 0, a panel whose column count is not `width`, or width > 1 on a
  /// strategy without block rounds.
  RoundResult run_round_block(const linalg::Matrix& x_block,
                              std::size_t width);

  /// Whether this strategy can run width > 1 block rounds:
  /// strategy_supports_block_rounds(kind()). The bilinear polynomial
  /// strategies cannot (their round computes Aᵀ·diag(x)·A, not a panel
  /// product).
  [[nodiscard]] bool supports_block_rounds() const {
    return strategy_supports_block_rounds(kind_);
  }

  /// Whether a warmed engine's steady-state run_round / run_round_block
  /// performs zero heap allocations, *provided the caller recycles* each
  /// RoundResult back via recycle() so its payload capacity is reused.
  /// True for the shared §4.3 lifecycle engines (mds / s2c2 / s2c2-basic /
  /// agc); the rateless, polynomial, and uncoded baselines keep the
  /// default. tests/arena_test.cpp enforces the claim with a counting
  /// operator new for every registered strategy that returns true.
  [[nodiscard]] virtual bool supports_allocation_free_rounds() const {
    return false;
  }

  /// Returns a spent RoundResult to the engine's pool. The next round
  /// served from the pool keeps the vectors' and matrices' capacity, which
  /// is what makes the steady state allocation-free. Optional: results
  /// that are never recycled are simply destroyed, at the cost of fresh
  /// payload allocations next round.
  void recycle(RoundResult&& result) {
    result_pool_.push_back(std::move(result));
  }

  /// Convenience loop. With an input vector every returned RoundResult
  /// carries its product — same-x products are recomputed per round
  /// because the cluster state (clock, predictor) advances. With the
  /// default empty span the rounds are latency-only; callers running
  /// convergence checks must pass x or they are silently measuring
  /// latency shapes, not results.
  std::vector<RoundResult> run_rounds(std::size_t rounds,
                                      std::span<const double> x = {});

  [[nodiscard]] StrategyKind kind() const noexcept { return kind_; }
  [[nodiscard]] sim::Time now() const noexcept { return now_; }
  [[nodiscard]] const sim::Accounting& accounting() const noexcept {
    return accounting_;
  }
  [[nodiscard]] const ClusterSpec& cluster() const noexcept { return spec_; }

  /// Fraction of completed rounds in which the §4.3 timeout fired
  /// (always 0 for strategies without a timeout window).
  [[nodiscard]] double timeout_rate() const;

  /// Fraction of rounds in which at least one worker's prediction missed
  /// its realized speed by more than 15% — the paper's per-iteration
  /// mis-prediction rate (§6.1, Fig 10). Counted over the rounds that
  /// sampled predictions; 0 for strategies that never sample them.
  [[nodiscard]] double misprediction_rate() const;

  /// Decode-cache telemetry (coding/decode_context.h); the uncoded
  /// baselines have no decode stage and report empty stats.
  [[nodiscard]] virtual coding::DecodeContextStats decode_stats() const {
    return {};
  }

  /// Worker-health telemetry fed from the round lifecycle
  /// (telemetry/health_monitor.h). Engines without the shared lifecycle
  /// (the uncoded baselines) report none.
  [[nodiscard]] virtual const telemetry::HealthMonitor* health_monitor()
      const {
    return nullptr;
  }

  /// Intra-round parallelism width (the `inner_jobs` knob in
  /// EngineParams / the harness configs). 1 (the default) keeps every
  /// round single-threaded and preserves the allocation-free steady
  /// state; jobs >= 2 spins up a private help-first pool of jobs - 1
  /// workers (the round-running thread participates, so total
  /// parallelism is `jobs`); 0 means ThreadPool::hardware_threads().
  /// The pool's one user is CodedComputeEngine's chunk fan-out (see
  /// kMinParallelChunkFlops); other engines run serially at any setting.
  /// Results are bitwise identical at any setting — each chunk product
  /// writes its own slot in the exact serial accumulation order
  /// (docs/PERFORMANCE.md "Intra-round parallelism").
  void set_inner_jobs(std::size_t jobs);
  [[nodiscard]] std::size_t inner_jobs() const noexcept {
    return inner_jobs_;
  }

 protected:
  StrategyEngine(StrategyKind kind, ClusterSpec spec,
                 std::unique_ptr<predict::SpeedPredictor> predictor);

  /// The engine's one round, run from the engine clock's now(); the
  /// caller advances the clock to the result's stats.end and counts the
  /// round. run_round passes (x, nullptr, 1); run_round_block passes
  /// ({}, &X, width) for width > 1, after it validated the panel and the
  /// strategy's block-round capability.
  [[nodiscard]] virtual RoundResult run_round_impl(
      std::span<const double> x, const linalg::Matrix* x_block,
      std::size_t width) = 0;

  /// Uncoded execution computes the exact product by construction: the
  /// baselines forward direct(x) into result.y, or the whole panel product
  /// direct(X) into result.y_block in one matmat call, so functional loops
  /// go through the same code path as the coded engines. No-op when
  /// `direct` is empty or the round carries no input.
  static void forward_direct_product(const DirectMultiply& direct,
                                     std::span<const double> x,
                                     const linalg::Matrix* x_block,
                                     RoundResult& result);

  /// Installs the last-value default used by every predicting engine when
  /// the caller supplied no predictor and no oracle flag.
  void ensure_predictor(bool oracle_speeds);

  /// The engine's intra-round pool: null when inner_jobs() <= 1 (the
  /// serial data path), otherwise a pool of inner_jobs() - 1 workers that
  /// the chunk fan-out runs on via the help-first member parallel_for.
  /// Round code treats a null pool as "run the serial loop".
  [[nodiscard]] util::ThreadPool* inner_pool() const noexcept {
    return inner_pool_.get();
  }

  /// Counts one round toward misprediction_rate(), by the paper's
  /// per-iteration rule (§6.1): the round sampled predictions when any
  /// worker observed a positive speed, and mispredicted when any such
  /// worker's prediction missed its observation by more than 15%.
  void count_prediction_round(std::span<const double> predicted,
                              std::span<const double> observed);

  /// Pops a recycled RoundResult (or a fresh one if the pool is empty).
  /// The recycled result keeps its payload capacity but carries stale
  /// contents — run_round_impl implementations must overwrite stats and
  /// either fill or reset() every optional payload before returning it.
  [[nodiscard]] RoundResult acquire_result() {
    RoundResult r;
    if (!result_pool_.empty()) {
      r = std::move(result_pool_.back());
      result_pool_.pop_back();
    }
    return r;
  }

  ClusterSpec spec_;
  std::unique_ptr<predict::SpeedPredictor> predictor_;
  sim::Accounting accounting_;

 private:
  /// run_round_impl plus the per-round bookkeeping every engine shares.
  RoundResult run_counted(std::span<const double> x,
                          const linalg::Matrix* x_block, std::size_t width);

  sim::Time now_ = 0.0;
  std::size_t rounds_run_ = 0;
  std::size_t timeouts_ = 0;
  StrategyKind kind_;
  std::size_t mispredicted_rounds_ = 0;
  std::size_t predicted_rounds_ = 0;  // rounds with >= 1 prediction sample
  std::vector<RoundResult> result_pool_;
  std::size_t inner_jobs_ = 1;
  std::unique_ptr<util::ThreadPool> inner_pool_;
};

/// Sum of round latencies.
[[nodiscard]] double total_latency(std::span<const RoundResult> results);

}  // namespace s2c2::core
