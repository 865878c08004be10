// DecodeContext — the cached, structure-exploiting decode subsystem.
//
// Every coded round the master must solve one k x k recovery system per
// distinct per-chunk responder set: G_sub · Y = B for the MDS code, a pure
// Vandermonde system in the responders' evaluation points for the
// polynomial code. The seed implementation paid a dense O(k³) LU per set
// per round, which is exactly the decode wall that capped the harnesses at
// n ≈ 50 workers. DecodeContext removes it two ways:
//
//  1. **Structure.** MDS generators here are systematic (rows < k are the
//     identity, coding/generator_matrix.h), so a responder set with s
//     systematic rows pins s of the k unknown blocks outright and the
//     recovery system Schur-reduces to the p x p parity block, p = k - s
//     (p <= n - k always — two for the default n-2 rule, regardless of
//     fleet size). Factorization is O(p³), solves O((ps + p²) · m) for m
//     RHS columns. Pure-Vandermonde systems (poly codes) skip
//     factorization entirely: the Björck–Pereyra solver
//     (linalg/vandermonde.h) runs O(k²) per RHS straight from the nodes.
//  2. **Caching.** Wrap-around allocations produce only O(n) distinct
//     responder sets per round and iterative jobs repeat them heavily
//     across rounds, so factorizations are cached across rounds (up to
//     kCapacity sets). An engine owns one context per job and reuses it
//     every round: repeated sets decode at amortized solve-only cost.
//
// Who factors, and when (MDS backend). A miss in charge() or a solve
// builds the entry's `missing` blocks and its p x p reduced matrix, inserts
// it and counts it, exactly as if it had been factored; the numeric LU is
// *pending* and runs later, in place, in the same storage. Each entry is
// factored exactly once, by whichever thread claims it first (an atomic
// state: ready, pending, claimed, failed):
//  * the round executor's helper thread, on functional rounds: charge()
//    calls made after begin_round() queue the entries they leave pending,
//    and factor_queued() factors them beside the round's decode;
//  * otherwise the decoding thread, in the first solve that needs it. A
//    solve that meets an entry the other thread has claimed blocks on the
//    state (std::atomic::wait) until that thread finishes it.
// The sim clock reads only factor_cost(), which depends on `missing`
// alone, so charged latencies do not depend on who factors or when. A
// cost-only round never factors at all, so it no longer detects a
// singular recovery system: the functional solve that needs one throws
// std::domain_error, and the entry stays failed (a pure function of its
// key, so every later solve on it throws the same). Vandermonde and LT
// entries have nothing to defer and are ready when built.
//
// Cache-key and invalidation contract:
//  * The key is the responder set as a **sorted worker bitmap** (one bit
//    per worker, packed into 64-bit words) — identical membership gives an
//    identical key regardless of arrival order.
//  * An entry is a pure function of (key, generator-or-nodes), both
//    immutable for the context's lifetime, so entries never go stale and
//    there is no implicit invalidation. The context borrows the
//    GeneratorMatrix; the caller keeps it alive (engines own both via
//    their job). `clear()` is the only explicit invalidation: call it if
//    you must re-bind a context, otherwise never.
//  * Entries are independent of RHS width/geometry; one entry serves every
//    chunk batch and every round that shows the same responder set.
//  * Bounded: at most kCapacity entries stay resident. A miss that would
//    exceed it evicts the least recently used entry (counted in
//    DecodeContextStats::evictions). An entry rebuilt after eviction is
//    the same pure function of its key, so decoded bits never depend on
//    the bound; only the hit/miss counts and the factorization flops
//    charge() books for the re-miss do. Eviction never recycles an entry
//    queued in the current round (checked): a round touches far fewer
//    than kCapacity responder sets, and queued entries are the newest.
//  * Not thread-safe, with one exception: factor_queued() may run on one
//    other thread while the owning thread decodes (solve_inplace,
//    redundant_residual). Otherwise one context per engine, engines per
//    sweep cell, and cells never share state (the matrix runner's
//    determinism contract).
//
// Cost model (charged flops mirror the numeric work; table and measured
// speedups in docs/PERFORMANCE.md):
//   dense LU (seed)        factor 2/3·k³        solve 2k²·m
//   systematic Schur       factor 2/3·p³        solve (2ps + 2p² + k)·m
//   Björck–Pereyra         factor 0             solve (2k² + k)·m
//   LT peeling             factor 2E + 2/3·s³   solve (2E + 2s² + k)·v
// (LT backend: E = edges of the collected symbol graph, s = stalled-tail
// size, v = RHS columns per *source*. The executor charges `columns` in
// per-chunk units — chunks x values-per-chunk — so the LT solve cost
// normalizes by chunks_per_worker to recover v; see solve_cost.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "src/coding/generator_matrix.h"
#include "src/linalg/lu.h"
#include "src/linalg/matrix.h"
#include "src/linalg/vandermonde.h"

namespace s2c2::coding {

class LtCode;  // rateless backend (lt_code.h); borrowed like the generator

/// What one charge() cost the simulated master.
struct DecodeCharge {
  double flops = 0.0;
  bool cache_hit = false;
};

/// Cumulative cache/cost telemetry. Every lookup — charge() or
/// solve_inplace() — counts one hit or miss; `entries` is the number of
/// distinct responder sets resident (<= DecodeContext::kCapacity), and
/// `evictions` the entries dropped to stay within it. `factorizations`
/// counts the numeric LUs actually run, on either thread: 0 on cost-only
/// runs, one per MDS miss with parity responders on functional ones.
/// Fingerprints may hash `entries`; they must never hash `evictions` or
/// `factorizations`, which are diagnostics.
struct DecodeContextStats {
  std::size_t entries = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t factorizations = 0;
  double factor_flops = 0.0;  // cumulative factorization cost charged
  double solve_flops = 0.0;   // cumulative solve cost charged
};

class DecodeContext {
  struct Entry;  // one cached responder-set factorization (private)

 public:
  /// Resident-entry bound. Sized so that no pinned fingerprint and no
  /// benchmark workload reaches it (recovery-n250 builds at most ~960
  /// entries per engine); a long-lived engine on volatile traces, which
  /// sees a fresh responder set almost every chunk group, stays within a
  /// few tens of MB instead of growing by ~150 KB per round.
  static constexpr std::size_t kCapacity = 4096;

  /// Systematic-MDS backend: recovery systems are k x k row subsets of
  /// `generator`, solved by Schur reduction onto the parity responders.
  /// Borrows the generator — it must outlive the context.
  explicit DecodeContext(const GeneratorMatrix& generator);

  /// Pure-Vandermonde backend (polynomial codes): worker w's row is
  /// [1, x_w, x_w², ...] at evaluation point x_w = eval_points[w]; any
  /// k-subset solves by Björck–Pereyra in O(k²) per RHS.
  DecodeContext(std::vector<double> eval_points, std::size_t k);

  /// Rateless-LT backend: k() is the source-block count and a "responder
  /// subset" is ANY sorted set of workers whose accumulated symbols
  /// decode (threshold + peelability — the engine's collection rule
  /// guarantees it before charging). Entries cache the structural peel
  /// plan (LtCode::plan_for) instead of a factorization; the numeric
  /// path is lt_decode, not solve_inplace. Borrows the code.
  explicit DecodeContext(const LtCode& code);

  // Move-only (cache entries are an incomplete type here).
  DecodeContext(DecodeContext&&) noexcept;
  DecodeContext& operator=(DecodeContext&&) noexcept;
  ~DecodeContext();

  /// Workers in the code (bitmap width).
  [[nodiscard]] std::size_t n() const noexcept;
  /// Recovery-system dimension (k for MDS, a² for poly codes).
  [[nodiscard]] std::size_t k() const noexcept { return k_; }

  /// Cost-model entry point: registers `subset` (sorted, size k, distinct
  /// workers) and returns the flops the simulated master spends decoding
  /// `columns` RHS columns against it. First sight of a subset pays the
  /// factorization; repeats pay solve cost only — identical cache
  /// semantics to solve_inplace, so cost-only and functional runs charge
  /// the same latencies. The numeric LU is left pending (header comment).
  DecodeCharge charge(std::span<const std::size_t> subset,
                      std::size_t columns);

  /// Starts a round's charges: drops the previous round's queue, and from
  /// here on charge() queues every entry it returns still pending. A
  /// context that never calls it queues nothing.
  void begin_round();
  /// True when the current round's charges queued a pending entry.
  [[nodiscard]] bool has_queued() const noexcept { return !queue_.empty(); }
  /// Factors the queued entries no other thread has claimed, in charge
  /// order. The one call that may run on another thread beside the owning
  /// thread's solves. Never throws: a failed factorization marks its entry
  /// failed, and the solve that needs the entry throws.
  void factor_queued() noexcept;

  /// Numeric entry point: solves  System(subset) · Y = B  in place. `rhs`
  /// is row-major, row j holding the `width` values of responder subset[j];
  /// on return row i holds unknown block i. Factorizations are cached;
  /// cached and fresh solves are bit-identical (same factors either way,
  /// whichever thread ran them). Throws std::domain_error, leaving `rhs`
  /// as it was, if the subset's system is singular.
  void solve_inplace(std::span<const std::size_t> subset,
                     std::span<double> rhs_rowmajor, std::size_t width);

  /// LT-backend numeric entry point: decodes the accumulated symbols of
  /// `subset` (sorted responders; `symbols` row-major in responder-major,
  /// chunk-minor order with `values_per_symbol` values per symbol) into
  /// the k() source blocks (`out`, k() x values_per_symbol row-major).
  /// Shares the cached peel plan with charge(). LT backend only.
  void lt_decode(std::span<const std::size_t> subset,
                 std::span<const double> symbols,
                 std::size_t values_per_symbol, std::span<double> out);

  /// Redundancy check (Byzantine detection — soundness bounds in
  /// docs/DESIGN.md §7): decode the chunk from the *first k* responders of
  /// `subset` (sorted, distinct, size r with k <= r <= n), then evaluate
  /// the code rows of the remaining r - k responders and compare against
  /// the values they actually sent. Returns the max abs residual over the
  /// redundant rows, relative to max(1, largest |value| supplied) — 0 when
  /// r == k (no redundancy, nothing to check), +infinity when a value is
  /// not finite or a residual is NaN. A clean responder set
  /// yields residuals at solver-roundoff level (< 1e-9 for the harness
  /// sizes); ANY corruption among the r rows perturbs it almost surely.
  /// `rhs` is r x width row-major in subset order and is not modified.
  /// Shares (and populates) the factorization cache with solve_inplace.
  [[nodiscard]] double redundant_residual(std::span<const std::size_t> subset,
                                          std::span<const double> rhs,
                                          std::size_t width);

  [[nodiscard]] const DecodeContextStats& stats() const noexcept {
    return stats_;
  }

  /// Drops every cached factorization and zeroes the stats. The only
  /// explicit invalidation; see the contract in the header comment.
  void clear();

 private:
  using Cache = std::map<std::vector<std::uint64_t>, std::unique_ptr<Entry>>;

  /// Ends of the intrusive recency list threaded through the entries.
  /// Moving hands the list over with the cache and empties the source.
  struct LruEnds {
    Entry* newest = nullptr;
    Entry* oldest = nullptr;
    LruEnds() = default;
    LruEnds(LruEnds&& o) noexcept;
    LruEnds& operator=(LruEnds&& o) noexcept;
  };

  /// Builds `subset`'s bitmap key into key_scratch_ (reused across calls:
  /// lookups on warm rounds are allocation-free; only a cache miss copies
  /// the key into the map).
  void make_key(std::span<const std::size_t> subset);
  Entry& acquire(std::span<const std::size_t> subset);
  /// (Re)builds `e` for `subset`, reusing its storage; an MDS entry with
  /// parity responders comes back pending.
  void build(Entry& e, std::span<const std::size_t> subset) const;
  /// Runs the LU of an entry the calling thread has claimed, publishes it
  /// (ready, or failed if it threw) and wakes any waiter. True if ready.
  bool factor(Entry& e) noexcept;
  /// Makes `e`'s LU usable on the owning thread: factors it if pending,
  /// waits while the other thread has it claimed, and throws
  /// std::domain_error if it failed.
  void await_factored(Entry& e);
  void unlink(Entry& e);
  void link_newest(Entry& e);
  [[nodiscard]] double solve_cost(const Entry& e, std::size_t columns) const;
  [[nodiscard]] double factor_cost(const Entry& e) const;

  const GeneratorMatrix* generator_ = nullptr;  // MDS backend
  std::vector<double> eval_points_;             // Vandermonde backend
  const LtCode* lt_code_ = nullptr;             // rateless backend
  std::size_t k_ = 0;
  Cache cache_;
  LruEnds lru_;
  DecodeContextStats stats_;
  // solve_inplace's scratch — the p x width Schur-reduced RHS and the LU
  // permutation gather — reused across calls and shared by every cache
  // entry, so the per-round hot path does not allocate.
  std::vector<double> reduced_scratch_;
  std::vector<double> perm_scratch_;
  std::vector<double> scratch_verify_;  // redundant_residual's k x width copy
  std::vector<std::uint64_t> key_scratch_;  // make_key's bitmap buffer
  // The current round's pending entries, in charge order (begin_round).
  bool queueing_ = false;
  std::vector<Entry*> queue_;
};

}  // namespace s2c2::coding
