#include "src/core/lt_engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/util/require.h"

namespace s2c2::core {

namespace {

/// Source-block count: a quorum-worth of symbols (k * c) deflated by the
/// decode overhead so min_workers() stays ~ k, capped at the row count
/// (more blocks than rows would be pure padding), then refitted so the
/// padding tail is smaller than one block.
std::size_t lt_sources(std::size_t rows, std::size_t k, std::size_t c,
                       double overhead) {
  const auto budget = static_cast<std::size_t>(
      static_cast<double>(k * c) / (1.0 + overhead));
  const std::size_t m0 = std::max<std::size_t>(1, std::min(budget, rows));
  const std::size_t r = (rows + m0 - 1) / m0;
  return (rows + r - 1) / r;
}

}  // namespace

LtCodedEngine::LtCodedEngine(const linalg::Matrix* dense,
                             const linalg::CsrMatrix* sparse,
                             std::size_t rows, std::size_t cols,
                             ClusterSpec spec, LtEngineConfig config,
                             std::unique_ptr<predict::SpeedPredictor> predictor)
    : RoundExecutor(StrategyKind::kLt, std::move(spec), std::move(predictor),
                    config.oracle_speeds, /*timeout_factor=*/1.15,
                    /*straggler_threshold=*/0.5, config.chunks_per_partition,
                    config.health_informed),
      data_rows_(rows),
      data_cols_(cols),
      rows_per_chunk_((rows + lt_sources(rows, config.k,
                                         config.chunks_per_partition,
                                         config.soliton.overhead) -
                       1) /
                      lt_sources(rows, config.k, config.chunks_per_partition,
                                 config.soliton.overhead)),
      chunk_flops_(matvec_flops(rows_per_chunk_, cols)),
      code_(spec_.num_workers(), config.chunks_per_partition,
            lt_sources(rows, config.k, config.chunks_per_partition,
                       config.soliton.overhead),
            config.code_seed, config.soliton),
      decode_ctx_(code_) {
  S2C2_REQUIRE(data_rows_ >= 1 && data_cols_ >= 1,
               "LT engine needs a non-empty operator");
  S2C2_REQUIRE(config.k >= 1 && config.k <= spec_.num_workers(),
               "LT storage parameter k must be in [1, n]");
  S2C2_REQUIRE(dense == nullptr || sparse == nullptr,
               "at most one functional operator");
  if (spec_.byzantine.active()) {
    // Deterministic refusal, not a programming error: the harness records
    // it as a failed cell, mirroring the uncoded baselines' behavior.
    throw std::runtime_error(
        "cluster failure: the lt strategy has no redundant-response "
        "verification for byzantine clusters");
  }

  if (dense != nullptr || sparse != nullptr) {
    // One-time precoding (setup cost is off the round clock, like the MDS
    // engine's partition encode): symbol = sum of its neighbor row blocks,
    // tail block zero-padded to rows_per_chunk rows.
    const std::size_t r = rows_per_chunk_;
    blocks_.reserve(code_.total_symbols());
    for (std::size_t s = 0; s < code_.total_symbols(); ++s) {
      linalg::Matrix block(r, data_cols_);
      for (const std::uint32_t b : code_.neighbors(s)) {
        const std::size_t begin = static_cast<std::size_t>(b) * r;
        const std::size_t end = std::min(begin + r, data_rows_);
        if (begin >= end) continue;
        if (dense != nullptr) {
          for (std::size_t i = begin; i < end; ++i) {
            const auto src = dense->row(i);
            double* dst = block.mutable_data().data() + (i - begin) * data_cols_;
            for (std::size_t c2 = 0; c2 < data_cols_; ++c2) dst[c2] += src[c2];
          }
        } else {
          const auto rp = sparse->row_ptr();
          const auto ci = sparse->col_idx();
          const auto vals = sparse->values();
          for (std::size_t i = begin; i < end; ++i) {
            double* dst = block.mutable_data().data() + (i - begin) * data_cols_;
            for (std::size_t p = rp[i]; p < rp[i + 1]; ++p) {
              dst[ci[p]] += vals[p];
            }
          }
        }
      }
      blocks_.push_back(std::move(block));
    }
  }
}

void LtCodedEngine::allocate_into(std::span<const double> speeds,
                                  sched::Allocation& out) {
  // Prediction-blind: every worker computes its whole symbol batch and the
  // code's redundancy absorbs the stragglers.
  (void)speeds;
  sched::full_allocation_into(spec_.num_workers(), chunks_per_partition(), out);
}

std::size_t LtCodedEngine::collection_count(
    std::span<const std::size_t> by_response, std::size_t finite) const {
  // Per-symbol stopping rule in whole-responder steps: the smallest
  // responder prefix whose accumulated symbols cross the threshold and
  // whose peel plan closes. A stalled plan extends by one responder (2c
  // fresh symbols usually un-stall immediately); running out of finite
  // responders is the strategy's quorum failure.
  std::vector<std::size_t> prefix;
  for (std::size_t count = quorum(); count <= finite; ++count) {
    prefix.assign(by_response.begin(),
                  by_response.begin() + static_cast<std::ptrdiff_t>(count));
    std::sort(prefix.begin(), prefix.end());
    if (code_.plan_for(prefix).decodable) return count;
  }
  throw std::runtime_error(quorum_failure_error());
}

void LtCodedEngine::decode_subsets(
    const RoundState& round,
    std::vector<std::vector<std::size_t>>& out) const {
  // Every chunk decodes from the same accumulated-symbol system: the full
  // sorted responder set, so the round charges exactly one grouped system.
  out = round.final_chunk_workers;
}

void LtCodedEngine::decode_into(RoundResult& result, const RoundState& round,
                                std::span<const double> x,
                                const linalg::Matrix* x_block,
                                std::size_t width) {
  const std::size_t c = chunks_per_partition();
  const std::size_t r = rows_per_chunk_;
  const std::size_t v = r * width;  // values per symbol
  const std::vector<std::size_t>& subset = round.final_chunk_workers[0];

  std::vector<double> symbols;
  symbols.reserve(subset.size() * c * v);
  for (const std::size_t w : subset) {
    for (std::size_t j = 0; j < c; ++j) {
      const linalg::Matrix& block = blocks_[code_.symbol_id(w, j)];
      if (x_block != nullptr) {
        const linalg::Matrix y = block.matmat(*x_block);
        symbols.insert(symbols.end(), y.data().begin(), y.data().end());
      } else {
        const std::vector<double> y = block.matvec(x);
        symbols.insert(symbols.end(), y.begin(), y.end());
      }
    }
  }

  // Sources come out in block order, so the padded product is contiguous
  // (data_rows x width is its prefix — padding lives past the last row).
  std::vector<double> padded(code_.sources() * v);
  decode_ctx_.lt_decode(subset, symbols, v,
                        std::span<double>(padded.data(), padded.size()));
  result.hessian.reset();
  if (x_block != nullptr) {
    result.y.reset();
    result.y_block = linalg::Matrix(
        data_rows_, width,
        std::vector<double>(padded.begin(),
                            padded.begin() + static_cast<std::ptrdiff_t>(
                                                 data_rows_ * width)));
  } else {
    result.y_block.reset();
    result.y = std::vector<double>(
        padded.begin(),
        padded.begin() + static_cast<std::ptrdiff_t>(data_rows_));
  }
}

void LtCodedEngine::decode_product(RoundResult& result,
                                   const RoundState& round,
                                   std::span<const double> x) {
  S2C2_REQUIRE(x.size() == data_cols_, "input vector size mismatch");
  decode_into(result, round, x, nullptr, 1);
}

void LtCodedEngine::decode_product_block(RoundResult& result,
                                         const RoundState& round,
                                         const linalg::Matrix& x_block) {
  S2C2_REQUIRE(x_block.rows() == data_cols_,
               "input panel row count mismatch");
  decode_into(result, round, {}, &x_block, x_block.cols());
}

}  // namespace s2c2::core
