#include "src/coding/decode_context.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "src/coding/lt_code.h"
#include "src/util/require.h"

namespace s2c2::coding {

namespace {
// Parity rows the Schur RHS reduction carries at once (see solve_inplace).
constexpr std::size_t kSchurRowBlock = 4;

/// Schur RHS reduction of kSchurRowBlock parity rows over columns
/// [c, c + Cols), accumulating in registers:
///   out[j][c + q] = par[j][c + q] - sum_i g[j][sys[i]] * rhs[i][c + q],
/// subtracting in ascending i and skipping zero coefficients — exactly
/// the chain the row-at-a-time reduction runs for every element. `g[j]`
/// is parity row j's generator row, read left to right as i ascends
/// (`sys` is sorted); rows are `width` apart in rhs, par and out.
template <std::size_t Cols>
void reduce_tile(std::span<const std::size_t> sys, const double* const* g,
                 const double* rhs, const double* par, double* out,
                 std::size_t width, std::size_t c) {
  double acc[kSchurRowBlock][Cols];
  for (std::size_t j = 0; j < kSchurRowBlock; ++j) {
    for (std::size_t q = 0; q < Cols; ++q) acc[j][q] = par[j * width + c + q];
  }
  for (std::size_t i = 0; i < sys.size(); ++i) {
    const double* v = rhs + i * width + c;
    for (std::size_t j = 0; j < kSchurRowBlock; ++j) {
      const double a = g[j][sys[i]];
      if (a == 0.0) continue;
      for (std::size_t q = 0; q < Cols; ++q) acc[j][q] -= a * v[q];
    }
  }
  for (std::size_t j = 0; j < kSchurRowBlock; ++j) {
    for (std::size_t q = 0; q < Cols; ++q) out[j * width + c + q] = acc[j][q];
  }
}
}  // namespace

/// One cached responder-set factorization. MDS backend: a sorted subset
/// holds its s systematic workers (ids < k, each pinning block id ==
/// worker id) at positions 0..s-1 and its p = k - s parity workers after
/// them, so the entry keeps only what the subset does not say: `missing`,
/// the blocks no systematic responder covers (ascending, |missing| == p),
/// and `lu`, the factors of the p x p reduced matrix
/// M(r, c) = G(subset[s + r], missing[c]) (empty when p == 0). The
/// Vandermonde backend sets only `bp`, the rateless one only `lt`.
struct DecodeContext::Entry {
  std::vector<std::size_t> missing;
  std::optional<linalg::LuFactorization> lu;
  std::optional<linalg::VandermondeSolver> bp;
  std::optional<LtPeelPlan> lt;
  // Recency list links and the entry's own map position (for eviction).
  Entry* newer = nullptr;
  Entry* older = nullptr;
  Cache::iterator self;
};

DecodeContext::LruEnds::LruEnds(LruEnds&& o) noexcept
    : newest(std::exchange(o.newest, nullptr)),
      oldest(std::exchange(o.oldest, nullptr)) {}

DecodeContext::LruEnds& DecodeContext::LruEnds::operator=(
    LruEnds&& o) noexcept {
  newest = std::exchange(o.newest, nullptr);
  oldest = std::exchange(o.oldest, nullptr);
  return *this;
}

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

void DecodeContext::unlink(Entry& e) {
  (e.newer ? e.newer->older : lru_.newest) = e.older;
  (e.older ? e.older->newer : lru_.oldest) = e.newer;
  e.newer = e.older = nullptr;
}

void DecodeContext::link_newest(Entry& e) {
  e.newer = nullptr;
  e.older = lru_.newest;
  (lru_.newest ? lru_.newest->newer : lru_.oldest) = &e;
  lru_.newest = &e;
}

void DecodeContext::build(Entry& e,
                          std::span<const std::size_t> subset) const {
  e.missing.clear();
  e.lu.reset();
  e.bp.reset();
  e.lt.reset();
  if (lt_code_ != nullptr) {
    e.lt.emplace(lt_code_->plan_for(subset));
    S2C2_REQUIRE(e.lt->decodable,
                 "LT responder set does not decode (collection must extend "
                 "past the threshold until the peel plan closes)");
  } else if (generator_) {
    // Systematic rows (identity: worker < k pins block worker) lead the
    // sorted subset; the blocks they skip are the Schur unknowns.
    const std::size_t s = static_cast<std::size_t>(
        std::lower_bound(subset.begin(), subset.end(), k_) - subset.begin());
    const std::size_t p = k_ - s;
    e.missing.reserve(p);
    for (std::size_t b = 0, j = 0; b < k_; ++b) {
      if (j < s && subset[j] == b) {
        ++j;
      } else {
        e.missing.push_back(b);
      }
    }
    S2C2_CHECK(e.missing.size() == p, "systematic split lost a block");
    if (p > 0) {
      linalg::Matrix reduced(p, p);
      for (std::size_t r = 0; r < p; ++r) {
        for (std::size_t c = 0; c < p; ++c) {
          reduced(r, c) = generator_->coeff(subset[s + r], e.missing[c]);
        }
      }
      e.lu.emplace(std::move(reduced));
    }
  } else {
    std::vector<double> pts(k_);
    for (std::size_t j = 0; j < k_; ++j) pts[j] = eval_points_[subset[j]];
    e.bp.emplace(std::move(pts));
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
    Entry& hit = *it->second;
    if (lru_.newest != &hit) {
      unlink(hit);
      link_newest(hit);
    }
    return hit;
  }
  ++stats_.misses;

  Entry* entry = nullptr;
  if (cache_.size() >= kCapacity) {
    // Recycle the least recently used entry's map node, key and storage.
    Entry& victim = *lru_.oldest;
    unlink(victim);
    Cache::node_type node = cache_.extract(victim.self);
    stats_.entries = cache_.size();
    ++stats_.evictions;
    node.key() = key_scratch_;
    build(*node.mapped(), subset);
    entry = node.mapped().get();
    entry->self = cache_.insert(std::move(node)).position;
  } else {
    auto fresh = std::make_unique<Entry>();
    build(*fresh, subset);
    entry = fresh.get();
    // Copies the key: miss path only.
    entry->self = cache_.emplace(key_scratch_, std::move(fresh)).first;
  }
  link_newest(*entry);
  stats_.entries = cache_.size();
  return *entry;
}

double DecodeContext::factor_cost(const Entry& e) const {
  if (e.bp) return 0.0;  // Björck–Pereyra works straight off the nodes
  if (e.lt) {
    // Peel scheduling walks every edge once; the stalled tail pays one
    // dense s x s factorization.
    const double s = static_cast<double>(e.lt->tail_size());
    return 2.0 * static_cast<double>(e.lt->edges) + 2.0 / 3.0 * s * s * s;
  }
  const double p = static_cast<double>(e.missing.size());
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
  const double p = static_cast<double>(e.missing.size());
  const double s = static_cast<double>(k_ - e.missing.size());
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
  // parity ids, so systematic rows occupy positions 0..s-1 with block
  // subset[i] >= i: (1) reduce the parity rows first (pure reads), (2)
  // move systematic rows to their block rows descending — every write
  // lands at >= the current read position, so no unread row is
  // clobbered, (3) scatter the solved missing blocks. The common
  // nearly-identity permutation then moves almost nothing, which is what
  // keeps the amortized per-round decode at memory speed.
  const std::size_t p = e.missing.size();
  const std::size_t s = k_ - p;
  double* rhs = rhs_rowmajor.data();
  if (p > 0) {
    // Reduced RHS: parity row minus its systematic contributions,
    //   reduced[r] = rhs[s + r] - sum_i G(subset[s + r], subset[i]) * rhs[i].
    // Parity rows go kSchurRowBlock at a time through register tiles of
    // two columns (then one): a single pass over the systematic rows feeds
    // 2 x kSchurRowBlock independent subtraction chains instead of one
    // latency-bound chain through memory, and each block reads its own
    // generator rows left to right. Leftover rows (all of them when
    // p < kSchurRowBlock) take the row-at-a-time loop. Each element keeps
    // its chain — copy, then ascending-i subtractions with zero
    // coefficients skipped — so the bits do not depend on the blocking.
    reduced_scratch_.resize(p * width);
    double* reduced = reduced_scratch_.data();
    const std::span<const std::size_t> sys = subset.first(s);
    const linalg::Matrix& gen = generator_->matrix();
    std::size_t r = 0;
    for (; r + kSchurRowBlock <= p; r += kSchurRowBlock) {
      const double* g[kSchurRowBlock];
      for (std::size_t j = 0; j < kSchurRowBlock; ++j) {
        g[j] = gen.row(subset[s + r + j]).data();
      }
      const double* par = rhs + (s + r) * width;
      double* out = reduced + r * width;
      std::size_t c = 0;
      for (; c + 2 <= width; c += 2) {
        reduce_tile<2>(sys, g, rhs, par, out, width, c);
      }
      if (c < width) reduce_tile<1>(sys, g, rhs, par, out, width, c);
    }
    for (; r < p; ++r) {
      double* dst = reduced + r * width;
      std::copy(rhs + (s + r) * width, rhs + (s + r + 1) * width, dst);
      for (std::size_t i = 0; i < s; ++i) {
        const double a = generator_->coeff(subset[s + r], subset[i]);
        if (a == 0.0) continue;
        const double* src = rhs + i * width;
        for (std::size_t c = 0; c < width; ++c) dst[c] -= a * src[c];
      }
    }
    e.lu->solve_inplace(std::span<double>(reduced, p * width), width,
                        perm_scratch_);
  }
  for (std::size_t i = s; i-- > 0;) {
    if (subset[i] == i) continue;
    std::copy(rhs + i * width, rhs + (i + 1) * width, rhs + subset[i] * width);
  }
  for (std::size_t r = 0; r < p; ++r) {
    const double* src = reduced_scratch_.data() + r * width;
    std::copy(src, src + width, rhs + e.missing[r] * width);
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
  lru_ = LruEnds{};
  stats_ = DecodeContextStats{};
}

}  // namespace s2c2::coding
