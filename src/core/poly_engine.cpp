#include "src/core/poly_engine.h"

#include <algorithm>
#include <utility>

#include "src/sched/coverage.h"
#include "src/util/require.h"

namespace s2c2::core {

namespace {

StrategyKind validated_kind(const PolyEngineConfig& config) {
  S2C2_REQUIRE(config.strategy == StrategyKind::kPoly ||
                   config.strategy == StrategyKind::kPolyConventional,
               "PolyCodedEngine runs the polynomial-coded strategies only "
               "(poly, poly-conventional)");
  return config.strategy;
}

}  // namespace

PolyCodedEngine::PolyCodedEngine(
    std::optional<linalg::Matrix> a_mat, std::size_t n_rows,
    std::size_t d_cols, std::size_t a_blocks, ClusterSpec spec,
    PolyEngineConfig config,
    std::unique_ptr<predict::SpeedPredictor> predictor)
    : RoundExecutor(validated_kind(config), std::move(spec),
                    std::move(predictor), config.oracle_speeds,
                    config.timeout_factor, /*straggler_threshold=*/0.5,
                    config.chunks_per_partition, config.health_informed),
      code_(spec_.num_workers(), a_blocks),
      decode_ctx_(code_.make_decode_context()),
      n_rows_(n_rows),
      d_cols_(d_cols) {
  S2C2_REQUIRE(d_cols_ % a_blocks == 0, "d must be divisible by a");
  out_cols_ = d_cols_ / a_blocks;
  const std::size_t c = config.chunks_per_partition;
  out_rows_ = (out_cols_ + c - 1) / c * c;  // output rows padded to chunks
  rows_per_chunk_ = out_rows_ / c;
  S2C2_REQUIRE(out_rows_ == out_cols_ || !a_mat.has_value(),
               "functional mode requires d/a divisible by chunk count");
  // Cost model: fixed diag(x)·B̃ scaling + per-chunk block-product work.
  pre_work_ = static_cast<double>(n_rows_) * static_cast<double>(out_cols_) /
              spec_.worker_flops;
  chunk_flops_ = 2.0 * static_cast<double>(rows_per_chunk_) *
                 static_cast<double>(n_rows_) * static_cast<double>(out_cols_);
  if (a_mat.has_value()) {
    S2C2_REQUIRE(a_mat->rows() == n_rows_ && a_mat->cols() == d_cols_,
                 "operand shape mismatch");
    operands_ = code_.encode(*a_mat);
  }
}

void PolyCodedEngine::decode_subsets(
    const RoundState& round,
    std::vector<std::vector<std::size_t>>& out) const {
  // Subsets mirror the functional decoder's keys: the a² smallest
  // responding worker ids per chunk. Invert the (rare) reassigned extras
  // into per-chunk lists once, instead of scanning every worker's extras
  // per chunk.
  const std::size_t n = spec_.num_workers();
  const std::size_t m = code_.required_responses();
  const std::size_t c = round.alloc.chunks_per_partition;
  const auto alloc_chunk_workers = sched::chunk_workers(round.alloc);
  std::vector<std::vector<std::size_t>> extra_workers(c);
  for (std::size_t w = 0; w < n; ++w) {
    for (std::size_t ch : round.extra_chunks[w]) {
      extra_workers[ch].push_back(w);
    }
  }
  out.assign(c, {});
  for (std::size_t ch = 0; ch < c; ++ch) {
    std::vector<std::size_t>& responders = out[ch];
    for (std::size_t w : alloc_chunk_workers[ch]) {
      if (round.used[w]) responders.push_back(w);
    }
    responders.insert(responders.end(), extra_workers[ch].begin(),
                      extra_workers[ch].end());
    std::sort(responders.begin(), responders.end());
    responders.erase(std::unique(responders.begin(), responders.end()),
                     responders.end());
    responders.resize(m);  // m smallest ids = the decoder's arrival subset
  }
}

void PolyCodedEngine::decode_product(RoundResult& result,
                                     const RoundState& round,
                                     std::span<const double> x) {
  S2C2_REQUIRE(x.size() == n_rows_, "x size mismatch");
  coding::PolyCode::Decoder decoder(code_, out_rows_,
                                    round.alloc.chunks_per_partition,
                                    out_cols_, &decode_ctx_);
  const std::size_t rpc = rows_per_chunk_;
  for (std::size_t w = 0; w < spec_.num_workers(); ++w) {
    if (!round.used[w]) continue;
    for (std::size_t ch : round.alloc.chunks_of(w)) {
      decoder.add_chunk_result(
          w, ch,
          coding::PolyCode::compute_rows(operands_[w], x, ch * rpc,
                                         (ch + 1) * rpc));
    }
    for (std::size_t ch : round.extra_chunks[w]) {
      decoder.add_chunk_result(
          w, ch,
          coding::PolyCode::compute_rows(operands_[w], x, ch * rpc,
                                         (ch + 1) * rpc));
    }
  }
  result.y.reset();
  result.y_block.reset();
  result.hessian = decoder.decode();
}

}  // namespace s2c2::core
