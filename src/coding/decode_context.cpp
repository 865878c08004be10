#include "src/coding/decode_context.h"

#include <algorithm>
#include <cmath>

#include "src/coding/lt_code.h"
#include "src/util/require.h"

namespace s2c2::coding {

/// One cached responder-set factorization. For the MDS backend the split
/// is: `sys_pos[i]` is the subset row whose worker is systematic for block
/// `sys_block[i]`; `par_worker` are the parity responders in subset order;
/// `missing` are the blocks no systematic responder covers (|missing| ==
/// |par_worker| == p). `lu` factors the p x p reduced matrix
/// M(r, c) = G(par_worker[r], missing[c]). For the Vandermonde backend
/// only `bp` is set.
struct DecodeContext::Entry {
  std::vector<std::size_t> sys_pos;
  std::vector<std::size_t> sys_block;
  std::vector<std::size_t> par_pos;
  std::vector<std::size_t> par_worker;
  std::vector<std::size_t> missing;
  std::unique_ptr<linalg::LuFactorization> lu;    // p x p; null when p == 0
  std::unique_ptr<linalg::VandermondeSolver> bp;  // Vandermonde backend
  std::unique_ptr<LtPeelPlan> lt;                 // rateless backend
};

DecodeContext::DecodeContext(DecodeContext&&) noexcept = default;
DecodeContext& DecodeContext::operator=(DecodeContext&&) noexcept = default;
DecodeContext::~DecodeContext() = default;

DecodeContext::DecodeContext(const GeneratorMatrix& generator)
    : generator_(&generator), k_(generator.k()) {}

DecodeContext::DecodeContext(std::vector<double> eval_points, std::size_t k)
    : eval_points_(std::move(eval_points)), k_(k) {
  S2C2_REQUIRE(k_ > 0, "DecodeContext needs k > 0");
  S2C2_REQUIRE(eval_points_.size() >= k_,
               "DecodeContext needs >= k evaluation points");
}

DecodeContext::DecodeContext(const LtCode& code)
    : lt_code_(&code), k_(code.sources()) {}

std::size_t DecodeContext::n() const noexcept {
  if (generator_ != nullptr) return generator_->n();
  if (lt_code_ != nullptr) return lt_code_->n();
  return eval_points_.size();
}

void DecodeContext::make_key(std::span<const std::size_t> subset) {
  key_scratch_.assign((n() + 63) / 64, 0);
  for (const std::size_t w : subset) {
    key_scratch_[w / 64] |= std::uint64_t{1} << (w % 64);
  }
}

DecodeContext::Entry& DecodeContext::acquire(
    std::span<const std::size_t> subset) {
  if (lt_code_ != nullptr) {
    // Rateless backend: the decode quorum is a symbol threshold, not a
    // worker count — any responder set whose symbols decode is a key.
    S2C2_REQUIRE(!subset.empty(), "LT responder subset must be non-empty");
  } else {
    S2C2_REQUIRE(subset.size() == k_, "responder subset must have exactly k");
  }
  S2C2_REQUIRE(std::is_sorted(subset.begin(), subset.end()) &&
                   std::adjacent_find(subset.begin(), subset.end()) ==
                       subset.end(),
               "responder subset must be sorted and distinct");
  S2C2_REQUIRE(subset.back() < n(), "responder worker out of range");

  make_key(subset);
  const auto it = cache_.find(key_scratch_);
  if (it != cache_.end()) {
    ++stats_.hits;
    return *it->second;
  }
  ++stats_.misses;

  auto entry = std::make_unique<Entry>();
  if (lt_code_ != nullptr) {
    entry->lt = std::make_unique<LtPeelPlan>(lt_code_->plan_for(subset));
    S2C2_REQUIRE(entry->lt->decodable,
                 "LT responder set does not decode (collection must extend "
                 "past the threshold until the peel plan closes)");
  } else if (generator_) {
    // Split into systematic rows (identity: worker < k pins block worker)
    // and parity rows, then factor the Schur-reduced parity block.
    std::vector<bool> covered(k_, false);
    for (std::size_t j = 0; j < subset.size(); ++j) {
      const std::size_t w = subset[j];
      if (generator_->is_systematic_row(w)) {
        entry->sys_pos.push_back(j);
        entry->sys_block.push_back(w);
        covered[w] = true;
      } else {
        entry->par_pos.push_back(j);
        entry->par_worker.push_back(w);
      }
    }
    for (std::size_t b = 0; b < k_; ++b) {
      if (!covered[b]) entry->missing.push_back(b);
    }
    S2C2_CHECK(entry->missing.size() == entry->par_worker.size(),
               "systematic split lost a block");
    const std::size_t p = entry->par_worker.size();
    if (p > 0) {
      linalg::Matrix reduced(p, p);
      for (std::size_t r = 0; r < p; ++r) {
        for (std::size_t c = 0; c < p; ++c) {
          reduced(r, c) =
              generator_->coeff(entry->par_worker[r], entry->missing[c]);
        }
      }
      entry->lu =
          std::make_unique<linalg::LuFactorization>(std::move(reduced));
    }
  } else {
    std::vector<double> pts(k_);
    for (std::size_t j = 0; j < k_; ++j) pts[j] = eval_points_[subset[j]];
    entry->bp = std::make_unique<linalg::VandermondeSolver>(std::move(pts));
  }

  Entry& ref = *entry;
  cache_.emplace(key_scratch_, std::move(entry));  // copies the key: miss path
  stats_.entries = cache_.size();
  return ref;
}

double DecodeContext::factor_cost(const Entry& e) const {
  if (e.bp) return 0.0;  // Björck–Pereyra works straight off the nodes
  if (e.lt) {
    // Peel scheduling walks every edge once; the stalled tail pays one
    // dense s x s factorization.
    const double s = static_cast<double>(e.lt->tail_size());
    return 2.0 * static_cast<double>(e.lt->edges) + 2.0 / 3.0 * s * s * s;
  }
  const double p = static_cast<double>(e.par_worker.size());
  return 2.0 / 3.0 * p * p * p;
}

double DecodeContext::solve_cost(const Entry& e, std::size_t columns) const {
  const double m = static_cast<double>(columns);
  const double kd = static_cast<double>(k_);
  if (e.bp) return (2.0 * kd * kd + kd) * m;
  if (e.lt) {
    // `columns` arrives in the executor's per-chunk units (chunks x
    // values-per-chunk x width); one decode actually solves every chunk
    // at once, with v = columns / chunks_per_worker RHS columns per
    // source: an edge-sweep subtraction pass, the tail's triangular
    // solves, and the k-row assembly copy.
    const double v = m / static_cast<double>(lt_code_->chunks_per_worker());
    const double s = static_cast<double>(e.lt->tail_size());
    return (2.0 * static_cast<double>(e.lt->edges) + 2.0 * s * s + kd) * v;
  }
  const double p = static_cast<double>(e.par_worker.size());
  const double s = static_cast<double>(e.sys_pos.size());
  // RHS reduction over systematic blocks + p x p triangular solves +
  // block-order assembly of the k output rows.
  return (2.0 * p * s + 2.0 * p * p + kd) * m;
}

DecodeCharge DecodeContext::charge(std::span<const std::size_t> subset,
                                   std::size_t columns) {
  const std::size_t misses_before = stats_.misses;
  const Entry& e = acquire(subset);
  DecodeCharge out;
  out.cache_hit = stats_.misses == misses_before;
  out.flops = solve_cost(e, columns);
  if (!out.cache_hit) {
    out.flops += factor_cost(e);
    stats_.factor_flops += factor_cost(e);
  }
  stats_.solve_flops += solve_cost(e, columns);
  return out;
}

void DecodeContext::lt_decode(std::span<const std::size_t> subset,
                              std::span<const double> symbols,
                              std::size_t values_per_symbol,
                              std::span<double> out) {
  S2C2_REQUIRE(lt_code_ != nullptr,
               "lt_decode is the rateless backend's entry point");
  Entry& e = acquire(subset);
  lt_code_->decode(*e.lt, symbols, values_per_symbol, out);
}

void DecodeContext::solve_inplace(std::span<const std::size_t> subset,
                                  std::span<double> rhs_rowmajor,
                                  std::size_t width) {
  S2C2_REQUIRE(lt_code_ == nullptr,
               "the rateless backend decodes through lt_decode");
  S2C2_REQUIRE(width > 0 && rhs_rowmajor.size() == k_ * width,
               "decode solve: rhs layout mismatch");
  Entry& e = acquire(subset);

  if (e.bp) {
    e.bp->solve_inplace(rhs_rowmajor, width);
    return;
  }
  // In-place scatter. The subset is sorted and systematic ids are < k <=
  // parity ids, so systematic rows occupy positions 0..s-1 with
  // sys_block[i] = subset[i] >= i: (1) reduce the parity rows first (pure
  // reads), (2) move systematic rows to their block rows descending —
  // every write lands at >= the current read position, so no unread row
  // is clobbered, (3) scatter the solved missing blocks. The common
  // nearly-identity permutation then moves almost nothing, which is what
  // keeps the amortized per-round decode at memory speed.
  const std::size_t p = e.par_worker.size();
  const std::size_t s = e.sys_pos.size();
  if (p > 0) {
    // Reduced RHS: parity row minus its systematic contributions.
    reduced_scratch_.resize(p * width);
    for (std::size_t r = 0; r < p; ++r) {
      const double* src = rhs_rowmajor.data() + e.par_pos[r] * width;
      double* dst = reduced_scratch_.data() + r * width;
      std::copy(src, src + width, dst);
      for (std::size_t i = 0; i < s; ++i) {
        const double g =
            generator_->coeff(e.par_worker[r], e.sys_block[i]);
        if (g == 0.0) continue;
        const double* sys = rhs_rowmajor.data() + e.sys_pos[i] * width;
        for (std::size_t c = 0; c < width; ++c) dst[c] -= g * sys[c];
      }
    }
    e.lu->solve_inplace(
        std::span<double>(reduced_scratch_.data(), p * width), width,
        perm_scratch_);
  }
  for (std::size_t i = s; i-- > 0;) {
    if (e.sys_block[i] == e.sys_pos[i]) continue;
    const double* src = rhs_rowmajor.data() + e.sys_pos[i] * width;
    std::copy(src, src + width,
              rhs_rowmajor.data() + e.sys_block[i] * width);
  }
  for (std::size_t r = 0; r < p; ++r) {
    const double* src = reduced_scratch_.data() + r * width;
    std::copy(src, src + width,
              rhs_rowmajor.data() + e.missing[r] * width);
  }
}

double DecodeContext::redundant_residual(std::span<const std::size_t> subset,
                                         std::span<const double> rhs,
                                         std::size_t width) {
  S2C2_REQUIRE(lt_code_ == nullptr,
               "the rateless backend has no redundant-response check");
  S2C2_REQUIRE(subset.size() >= k_ && subset.size() <= n(),
               "redundant_residual: subset size must be in [k, n]");
  S2C2_REQUIRE(width > 0 && rhs.size() == subset.size() * width,
               "redundant_residual: rhs layout mismatch");
  S2C2_REQUIRE(std::is_sorted(subset.begin(), subset.end()) &&
                   std::adjacent_find(subset.begin(), subset.end()) ==
                       subset.end(),
               "redundant_residual: subset must be sorted and distinct");
  if (subset.size() == k_) return 0.0;  // no redundancy to check

  double scale = 1.0;
  for (const double v : rhs) scale = std::max(scale, std::abs(v));

  // Decode from the first k responders on a scratch copy (solve_inplace
  // leaves the unknown blocks in block order, which is exactly what the
  // code-row evaluation below consumes).
  scratch_verify_.assign(rhs.begin(), rhs.begin() + k_ * width);
  solve_inplace(subset.first(k_),
                std::span<double>(scratch_verify_.data(), k_ * width), width);

  double max_residual = 0.0;
  for (std::size_t i = k_; i < subset.size(); ++i) {
    const std::size_t w = subset[i];
    const double* sent = rhs.data() + i * width;
    for (std::size_t c = 0; c < width; ++c) {
      double predicted;
      if (generator_) {
        predicted = 0.0;
        for (std::size_t b = 0; b < k_; ++b) {
          predicted += generator_->coeff(w, b) * scratch_verify_[b * width + c];
        }
      } else {
        // Vandermonde row [1, x, x², ...]: Horner over the solved
        // coefficient blocks.
        const double x = eval_points_[w];
        predicted = scratch_verify_[(k_ - 1) * width + c];
        for (std::size_t b = k_ - 1; b-- > 0;) {
          predicted = predicted * x + scratch_verify_[b * width + c];
        }
      }
      max_residual = std::max(max_residual, std::abs(predicted - sent[c]));
    }
  }
  return max_residual / scale;
}

void DecodeContext::clear() {
  cache_.clear();
  stats_ = DecodeContextStats{};
}

}  // namespace s2c2::coding
