// Coalesced serving harness — the first consumer of the multi-RHS block
// round data path (strategy_engine.h run_round_block).
//
// The paper's rounds are iterations of ONE job; this layer serves MANY
// concurrent jobs through the same coded fleet. Per-tenant matvec requests
// against a shared operator arrive open-loop (Poisson interarrivals);
// the server admits them FIFO, drops requests whose deadline already
// passed at dispatch time, coalesces up to max_batch waiting requests
// into one cols x b panel, and runs a single coded block round for all of
// them. Batching is where coding wins twice: the round's fixed costs
// (input broadcast, collection, and — the big one — the cached
// DecodeContext factorization per responder set) amortize across all b
// columns, so per-request decode cost falls roughly by b while the k x k
// (or Schur) factorization is charged once per responder set instead of
// once per request.
//
// Clock semantics: the serve loop keeps its own wall clock (dispatch =
// max(server free, head-of-queue arrival); completion = dispatch + round
// latency), while the engine's private clock advances only by round
// latencies — idle gaps waiting for arrivals do not age the cluster's
// speed traces. This keeps every round's trace window a pure function of
// how many rounds ran before it, which is what makes the whole serve run
// reproducible bit-for-bit from ServeConfig alone.
//
// Determinism contract: arrivals, tenants, request vectors, traces, and
// the operator all derive from ServeConfig::seed (salted independently of
// the scenario matrix, so the pinned sweep goldens are untouched);
// run_serve(config) is a pure function of config, and run_serve_sweep
// shards cells across threads into preallocated slots, so results are
// byte-identical at any --jobs.
//
// Consumers: tests/serve_test.cpp, bench/bench_serve.cpp,
// examples/scenario_cli.cpp --serve.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/coding/decode_context.h"
#include "src/harness/scenario_matrix.h"

namespace s2c2::harness {

struct ServeConfig {
  /// Display label for benches/CLI tables (not hashed).
  std::string label;

  /// Any registered strategy. Strategies without block-round support (the
  /// bilinear polynomial family) still serve, but degrade to width-1
  /// rounds — coalescing needs run_round_block(X, b > 1).
  StrategyKind strategy = StrategyKind::kS2C2;
  TraceProfile trace = TraceProfile::kStableCloud;

  std::size_t workers = 12;
  std::size_t k = 0;  // MDS parameter; 0 = workers - 2
  std::size_t stragglers = 2;  // controlled profile only
  std::size_t chunks_per_partition = 24;

  /// Open-loop arrival stream.
  std::size_t requests = 64;
  std::size_t tenants = 4;
  /// Mean arrivals per simulated second. 0 auto-calibrates from a probe
  /// round on a fresh engine: rate = load_factor / probe_latency, i.e.
  /// load_factor requests arrive per round-duration on average — > 1
  /// builds queues and exercises coalescing.
  double arrival_rate = 0.0;
  double load_factor = 4.0;

  /// Coalescing cap: a dispatch takes at most this many waiting requests.
  std::size_t max_batch = 16;
  /// Admission deadline relative to arrival; a request still queued this
  /// long past its arrival is rejected at dispatch time. 0 disables.
  double deadline = 0.0;

  /// Functional mode builds a real dense operator and verifies every
  /// returned product column against the direct matvec; cost-only mode
  /// serves latency-only block rounds at paper scale. The check's panel
  /// product runs on one helper thread, overlapped with the round it
  /// verifies; inside a fan-out body (run_serve_sweep at jobs > 1) it runs
  /// after the round on the calling thread.
  bool functional = true;
  /// Operator shape; 0 derives a small functional default (the
  /// amortization bench passes tiny rows explicitly so factorization
  /// flops dominate solve flops).
  std::size_t op_rows = 0;
  std::size_t op_cols = 0;

  std::uint64_t seed = 42;

  /// Intra-round parallelism for the serving engine (forwarded to
  /// core::EngineParams::inner_jobs): the coalesced block round's
  /// per-chunk products fan out over an inner pool when each is big
  /// enough to pay (core::CodedComputeEngine::kMinParallelChunkFlops).
  /// 1 = serial (default), 0 = hardware threads. Not hashed — the
  /// fingerprint is bitwise-invariant across inner_jobs by construction.
  std::size_t inner_jobs = 1;

  [[nodiscard]] std::size_t effective_k() const {
    return resolve_k(workers, k);
  }
};

/// One request's life: arrival (open-loop), dispatch (admitted into a
/// coalesced round), completion (dispatch + round latency), or rejection
/// (deadline passed while queued; width/round stay 0).
struct RequestOutcome {
  std::size_t id = 0;
  std::size_t tenant = 0;
  double arrival = 0.0;
  double dispatch = 0.0;
  double completion = 0.0;
  std::size_t round = 0;  // index of the coalesced round it rode in
  std::size_t width = 0;  // that round's batch width
  bool rejected = false;

  [[nodiscard]] double latency() const { return completion - arrival; }
};

struct ServeResult {
  ServeConfig config;
  std::vector<RequestOutcome> outcomes;  // by request id

  std::size_t rounds = 0;     // coalesced block rounds dispatched
  std::size_t completed = 0;
  std::size_t rejected = 0;
  double realized_rate = 0.0;  // arrivals/s actually used (post-probe)
  double makespan = 0.0;       // last completion time
  double mean_latency = 0.0;   // completed requests only
  double p50_latency = 0.0;
  double p99_latency = 0.0;
  double jobs_per_sec = 0.0;   // completed / makespan

  /// Functional verification: max |served column - direct matvec| over
  /// every product the strategy returned (0 when cost-only or the
  /// strategy returns no product; +infinity if a served entry is NaN).
  double max_error = 0.0;
  std::size_t products_verified = 0;
  /// Every served product's exact bits, folded round by round (0 when no
  /// product was served), so the fingerprint sees a one-ulp change.
  std::uint64_t product_digest = 0;

  /// Decode-cache telemetry across the whole serve run — coalesced
  /// rounds hitting the cache is the amortization story the bench bars.
  coding::DecodeContextStats decode;

  /// FNV-1a over every outcome's exact bits + decode counters, plus the
  /// product digest when products were served; the determinism handle
  /// (same config => same fingerprint, at any --jobs).
  [[nodiscard]] std::string fingerprint() const;
};

/// Serves config.requests through one engine. Pure in config. Throws
/// std::runtime_error on unrecoverable cluster failure (e.g. an uncoded
/// strategy on the byzantine profile). In functional mode each round's
/// exact check (the direct panel product) runs on one helper thread while
/// the calling thread runs the round, then both join and compare. Called
/// inside a fan-out body (util::ThreadPool::in_worker()), it starts no
/// thread and runs round then check serially. Every result bit is the same
/// either way.
[[nodiscard]] ServeResult run_serve(const ServeConfig& config);

/// Runs independent serve cells across `jobs` threads (0 = hardware).
/// Slot i is run_serve(cells[i]) bit-for-bit regardless of thread count.
[[nodiscard]] std::vector<ServeResult> run_serve_sweep(
    std::span<const ServeConfig> cells, std::size_t jobs);

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when
/// empty. Exposed for the bench/CLI summary tables.
[[nodiscard]] double percentile(std::vector<double> sample, double q);

}  // namespace s2c2::harness
