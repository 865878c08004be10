// Cluster specification, cost model, and strategy configuration shared by
// every execution engine.
//
// Work is measured in "unit-speed seconds": a kernel of F flops takes
// F / worker_flops seconds on a worker running at relative speed 1.0, and
// the speed trace integral converts that to wall-clock time. All of the
// paper's results are relative latencies, so only the *ratios* between
// compute, communication, and decode costs matter; the defaults model a
// ~1 Gflop/s (1-vCPU) cloud node on a 10 Gb/s / 100 us network, and the
// harness layers rescale them per scenario (see make_cluster /
// job_cluster) to keep those ratios honest at test-sized operators.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/network.h"
#include "src/sim/speed_trace.h"

namespace s2c2::core {

/// Byzantine adversary model: the listed workers compute honestly-timed
/// but *corrupted* products every round (deterministic corruption pattern
/// derived from `seed`). Coded engines over-provision coverage, identify
/// the corrupted responders through the decode-residual check
/// (docs/DESIGN.md §7), book their work as waste, and recover through the
/// §4.3 wave hooks; uncoded strategies have no redundancy to verify
/// against and fail deterministically. Soundness requires
/// |corrupt_workers| <= n - k - 1 (at least one redundant response beyond
/// the exclusion set must remain to confirm consistency).
struct ByzantineSpec {
  std::vector<std::size_t> corrupt_workers;  // empty = honest cluster
  double corruption_scale = 1e3;  // magnitude of the injected perturbation
  std::uint64_t seed = 0;         // deterministic corruption pattern

  [[nodiscard]] bool active() const { return !corrupt_workers.empty(); }
};

struct ClusterSpec {
  std::vector<sim::SpeedTrace> traces;  // one per worker
  sim::NetworkModel net{1e-4, 1.25e9};  // 10 Gb/s, 100us latency
  double worker_flops = 1e9;            // at relative speed 1.0
  double master_flops = 1e9;            // decode speed
  ByzantineSpec byzantine;              // default: honest cluster

  [[nodiscard]] std::size_t num_workers() const { return traces.size(); }

  /// Uniform cluster helper (tests / examples).
  static ClusterSpec uniform(std::size_t n, double speed = 1.0);
};

/// The one strategy taxonomy every layer shares — engines, harness axes,
/// job driver, report, CLIs. `strategy_name` / `parse_strategy` are the
/// single naming authority; capability predicates below drive the
/// harness axes and the README strategy table. Engines are constructed
/// through make_engine in engine_factory.h.
enum class StrategyKind {
  kS2C2,              // speed-proportional MDS shares (paper §4.2, Alg. 1)
  kS2C2Basic,         // equal shares over non-stragglers (paper §4.1)
  kMds,               // fastest k full partitions (prior work [22])
  kPoly,              // polynomial code + S2C2 allocation (§5)
  kPolyConventional,  // polynomial code, fastest-a² collection
  kReplication,       // uncoded r-replication + LATE speculation (§7.1)
  kOverDecomp,        // over-decomposition + predicted balancing (§7.2)
  kLt,                // rateless LT code, symbol-threshold collection
                      // (Mallick et al., PAPERS.md)
  kAgc,               // adaptive gradient coding: per-round redundancy
                      // from predicted speeds (Cao et al., PAPERS.md)
};

/// Canonical short name ("s2c2", "mds", "poly", ... ) — the spelling CLIs
/// parse, tables print, and report CSVs embed.
[[nodiscard]] const char* strategy_name(StrategyKind s);

/// Inverse of strategy_name. Throws std::invalid_argument on unknown
/// names; callers restricting to an axis subset (e.g. the scenario
/// matrix's four engines) check membership on top.
[[nodiscard]] StrategyKind parse_strategy(const std::string& name);

/// All kinds, in enum order.
[[nodiscard]] std::vector<StrategyKind> all_strategy_kinds();

/// True when the strategy's *allocation* consumes speed predictions.
/// kMds reads oracle speeds for misprediction telemetry only, so it is
/// prediction-blind here (matching the harness axes' historical split).
[[nodiscard]] bool strategy_uses_predictions(StrategyKind s);

/// True for strategies whose master runs a decode (MDS / polynomial
/// codes); the uncoded baselines compute exact products directly.
[[nodiscard]] bool strategy_is_coded(StrategyKind s);

/// True when the strategy runs the §4.3 timeout + chunk-reassignment
/// recovery window (the S2C2 family); fastest-quorum and uncoded
/// strategies simply cancel or speculate.
[[nodiscard]] bool strategy_uses_recovery(StrategyKind s);

/// True when the strategy can detect and survive Byzantine (corrupted)
/// responses by spending redundancy on the decode-residual check
/// (docs/DESIGN.md §7). The uncoded baselines forward unverifiable
/// products and fail deterministically under a ByzantineSpec; the
/// rateless `lt` strategy is coded but collects a bare symbol threshold
/// with no over-provisioned verification pass, so it refuses Byzantine
/// clusters too.
[[nodiscard]] bool strategy_tolerates_byzantine(StrategyKind s);

/// True when the engine implements the width-generic block data path
/// (run_round_block with width > 1) — the serving layer's coalescing
/// gate. The polynomial engines decode a bilinear form per RHS column
/// and reject wider rounds.
[[nodiscard]] bool strategy_supports_block_rounds(StrategyKind s);

struct EngineConfig {
  /// Allocation/collection policy of the MDS-coded engine; one of
  /// kS2C2, kS2C2Basic, kMds.
  StrategyKind strategy = StrategyKind::kS2C2;

  /// Chunk granularity per partition (over-decomposition factor). The
  /// paper's Algorithm 1 uses Σu_i; a fixed power of two behaves the same
  /// and keeps decode group counts stable (claim `abl.granularity-flat` in
  /// docs/REPRODUCTION.md).
  std::size_t chunks_per_partition = 24;

  /// Timeout = factor x (mean response time of first k) — paper §4.3 picks
  /// 1.15 from the predictor's 16.7% MAPE.
  double timeout_factor = 1.15;

  /// Basic S2C2 flags worker w a straggler when its predicted speed falls
  /// below threshold x median predicted speed.
  double straggler_threshold = 0.5;

  /// Use the true trace speed at round start instead of the predictor
  /// (the paper's "knowing the exact speeds" variant in Figs 6/7).
  bool oracle_speeds = false;

  /// Wrap the predictor in predict::HealthInformedPredictor: predictions
  /// are scaled by the health monitor's degradation factor, so a fail-slow
  /// worker's allocation shrinks ahead of the EWMA the raw predictor
  /// tracks. Off by default — it changes allocations, and the pinned
  /// honest-cluster fingerprints must not see it.
  bool health_informed = false;
};

/// Flop-count helpers for the cost model.
[[nodiscard]] constexpr double matvec_flops(std::size_t rows,
                                            std::size_t cols) {
  return 2.0 * static_cast<double>(rows) * static_cast<double>(cols);
}

}  // namespace s2c2::core
