// CodedComputeEngine — iterative coded matrix-vector execution under the
// MDS-conventional, basic-S2C2, and general-S2C2 strategies (paper §4, §6).
//
// The round lifecycle (predict → allocate → dispatch → §4.3 timeout/
// collection → wave recovery → decode-cost charge → accounting →
// functional decode) lives in core::RoundExecutor and is shared with the
// polynomial-coded engine; this class supplies only the MDS-specific
// ingredients: the coded job's cost geometry, the k-response quorum, the
// ChunkedDecoder numeric decode through a per-engine coding::DecodeContext
// that persists across rounds (responder sets repeat heavily in iterative
// jobs, so repeated sets decode at amortized solve-only cost and the
// latency model charges factorization only on cache misses — the
// thousand-worker unlock, docs/PERFORMANCE.md).
//
// The engine advances its private simulated clock across rounds, so speed
// traces play out over the whole run exactly as the paper's clusters do.
// Construct directly, or through make_engine in engine_factory.h.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/coded_job.h"
#include "src/core/round_executor.h"
#include "src/core/strategy_config.h"

namespace s2c2::core {

class CodedComputeEngine : public RoundExecutor {
 public:
  /// `predictor` may be null: the engine then uses last-value prediction.
  /// The spec must provide exactly job.n() traces. config.strategy must
  /// be one of kS2C2, kS2C2Basic, kMds — or kAgc through the
  /// AdaptiveGradientEngine subclass, which reuses this whole lifecycle
  /// and swaps only the allocation rule.
  CodedComputeEngine(CodedMatVecJob job, ClusterSpec spec, EngineConfig config,
                     std::unique_ptr<predict::SpeedPredictor> predictor =
                         nullptr);

  [[nodiscard]] const CodedMatVecJob& job() const noexcept { return job_; }

  /// The one intra-round parallel layer: with inner_jobs >= 2, a
  /// functional round fans its chunk runs (one per worker's contiguous
  /// assigned range, plus one per recovery extra) out over the inner pool
  /// only when one chunk product — job().chunk_flops(width) — costs at
  /// least this many flops. Smaller tasks run serially: on a 4-thread
  /// host the fan-out loses below ~400 flops per task and wins from 512
  /// up (measurements in docs/PERFORMANCE.md "Intra-round parallelism").
  static constexpr double kMinParallelChunkFlops = 512.0;

  /// Decode-cache telemetry across every round so far (responder sets
  /// resident, hits/misses, charged flops) — see coding/decode_context.h.
  [[nodiscard]] coding::DecodeContextStats decode_stats() const override {
    return decode_ctx_.stats();
  }

  /// Warmed steady-state rounds are heap-free when the caller recycles
  /// results (see StrategyEngine::recycle): allocation, collection, decode
  /// staging, and the functional decode all run from retained scratch and
  /// the round arena.
  [[nodiscard]] bool supports_allocation_free_rounds() const override {
    return true;
  }

 protected:
  // RoundExecutor hooks (see round_executor.h for the lifecycle).
  [[nodiscard]] std::size_t quorum() const override { return job_.k(); }
  [[nodiscard]] std::size_t x_bytes() const override { return job_.x_bytes(); }
  [[nodiscard]] std::size_t chunk_result_bytes() const override {
    return job_.chunk_result_bytes();
  }
  [[nodiscard]] double chunk_flops() const override {
    return job_.chunk_flops();
  }
  [[nodiscard]] bool recovery_survives_death() const override { return true; }
  [[nodiscard]] const char* quorum_failure_error() const override {
    return "cluster failure: fewer than k workers can respond";
  }
  [[nodiscard]] std::string recovery_infeasible_error(
      const char* what) const override {
    return std::string("cluster failure: recovery infeasible: ") + what;
  }
  [[nodiscard]] const char* recovery_death_error() const override {
    return "cluster failure during recovery";  // unreachable: cascades
  }
  [[nodiscard]] coding::DecodeContext& decode_context() override {
    return decode_ctx_;
  }
  void decode_subsets(const RoundLedger& ledger,
                      std::vector<std::vector<std::size_t>>& out)
      const override;
  [[nodiscard]] std::size_t decode_values_per_chunk() const override {
    return job_.rows_per_chunk();
  }
  [[nodiscard]] bool functional_round(
      std::span<const double> x) const override {
    return job_.functional() && !x.empty();
  }
  [[nodiscard]] bool functional_block_round(
      const linalg::Matrix& x_block) const override {
    return job_.functional() && !x_block.empty();
  }
  void decode_product(RoundResult& result, const RoundLedger& ledger,
                      std::span<const double> x) override;
  void decode_product_block(RoundResult& result, const RoundLedger& ledger,
                            const linalg::Matrix& x_block) override;

 private:
  /// Shared verified-decode body of decode_product / decode_product_block:
  /// re-shapes the persistent decoder to width b, computes every used
  /// responder's chunk values straight into arena-staged decoder slots
  /// (re-adding corrupted values when the cluster is Byzantine so the
  /// residual pass convicts them numerically), and decodes into
  /// decoded_scratch_. The returned reference is valid until the next
  /// round's decode.
  [[nodiscard]] const linalg::Matrix& run_verified_decode(
      const RoundLedger& ledger, std::size_t width,
      std::span<const double> x_panel);

  /// One staged run of chunk products awaiting compute: chunks
  /// [first, first + count) of `worker`'s partition and their contiguous
  /// arena-backed decoder slots. Staging (which mutates decoder state and
  /// fixes the fingerprinted arrival order) runs serially; the pure
  /// compute into these non-overlapping spans then fans out over the
  /// engine's inner pool when kMinParallelChunkFlops allows.
  struct ChunkTask {
    std::size_t worker;
    std::size_t first;
    std::size_t count;
    std::span<double> out;
  };

  CodedMatVecJob job_;
  /// Persists across rounds so repeated responder sets decode from cache;
  /// borrows job_.generator() (declared after job_, never rebound).
  coding::DecodeContext decode_ctx_;
  /// Persists across rounds (reset(width) each functional round) so its
  /// arena and slot capacity make steady-state decodes allocation-free.
  coding::ChunkedDecoder decoder_;
  linalg::Matrix decoded_scratch_;  // run_verified_decode's output
  std::vector<ChunkTask> chunk_tasks_;  // capacity retained across rounds
};

}  // namespace s2c2::core
