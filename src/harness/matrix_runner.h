// Parallel, sharded scenario-matrix executor (the scalable evaluation
// backbone on top of src/harness/scenario_matrix.h).
//
// The matrix runner widens the cell grid with two extra axes — cluster
// scale and predictor choice — and executes cells concurrently on a
// util::ThreadPool. Cells are embarrassingly parallel by construction:
// every stochastic choice inside run_cell derives from the cell's own
// coordinates (seeded RNGs, per-column trained predictors), no cell touches
// global state, and each task writes only its preassigned output slot. The
// determinism contract is therefore byte-level:
//
//   run_matrix(cfg, axes, {.jobs = 1}) and run_matrix(cfg, axes, {.jobs = N})
//   produce identical MatrixResults — identical per-cell fingerprints,
//   identical whole-matrix fingerprint — for every N.
//
// Cell order in the output is the axis nesting order — cluster size, then
// the prediction-blind engines once, then predictor x prediction-capable
// engine, workload, trace — independent of completion order. Sharding
// semantics: jobs = 0 uses every hardware thread, jobs = 1 runs inline on
// the caller's thread, jobs = N runs cells on an N-thread util::ThreadPool
// with each cell writing only its preassigned output slot (no ordering or
// atomicity requirements between cells). src/report consumes this runner
// for the predictor-sensitivity slice of REPRODUCTION.md.
#pragma once

#include <cstddef>
#include <vector>

#include "src/harness/scenario_matrix.h"

namespace s2c2::harness {

/// Axis selection for one sweep. Empty `cluster_sizes` means "the base
/// config's cluster"; `predictors` always applies to prediction-capable
/// engines only (replication runs once per column, with kOracle recorded).
struct MatrixAxes {
  std::vector<StrategyKind> engines = all_engines();
  std::vector<WorkloadKind> workloads = all_workloads();
  std::vector<TraceProfile> traces = all_trace_profiles();
  std::vector<std::size_t> cluster_sizes;  // empty => {config.workers}
  std::vector<PredictorKind> predictors = {PredictorKind::kOracle};

  /// The widened full grid: every engine/workload/trace, cluster scale
  /// n in {12, 24, 48}, and all four predictors.
  [[nodiscard]] static MatrixAxes full();

  /// The thousand-worker sweep: every engine at n in {100, 250, 1000}
  /// (k/stragglers rescaled by cell_config), cost-only-sized workloads
  /// on the oracle predictor. Tractable because decode is charged through
  /// the cached Schur-reduced context (docs/PERFORMANCE.md) instead of a
  /// dense O(k³) LU per round — the seed model made n = 1000 cells decode-
  /// bound by hours. Deterministic at any --jobs like every other sweep.
  [[nodiscard]] static MatrixAxes large_scale();

  /// The robustness sweep: every engine x workload over the PR 6 trace
  /// zoo (fail-slow, bursty colocation, diurnal, byzantine) on the
  /// last-value predictor — coded cells detect and survive the byzantine
  /// column, the uncoded baselines record deterministic failed cells, and
  /// health-informed prediction is active throughout.
  [[nodiscard]] static MatrixAxes robustness();
};

/// One cell coordinate in the widened grid.
struct CellCoord {
  StrategyKind engine{};
  WorkloadKind workload{};
  TraceProfile trace{};
  std::size_t workers = 0;
  PredictorKind predictor = PredictorKind::kOracle;
};

struct RunnerOptions {
  /// Worker threads for the sweep; 0 = hardware concurrency, 1 = serial.
  /// Intra-round parallelism within each cell's engine is the base
  /// config's ScenarioConfig::inner_jobs, which every cell inherits.
  std::size_t jobs = 1;
};

/// The base config rescaled to a cell's cluster size: k and the straggler
/// count scale proportionally with n (k = 0 keeps the n - 2 default rule).
[[nodiscard]] ScenarioConfig cell_config(const ScenarioConfig& base,
                                         std::size_t workers,
                                         PredictorKind predictor);

/// Materializes the axis cross product in deterministic output order,
/// dropping predictor variants for engines that ignore predictions.
[[nodiscard]] std::vector<CellCoord> expand_axes(const ScenarioConfig& base,
                                                 const MatrixAxes& axes);

/// Runs every cell of the widened grid, `options.jobs` cells at a time.
[[nodiscard]] MatrixResult run_matrix(const ScenarioConfig& base,
                                      const MatrixAxes& axes,
                                      const RunnerOptions& options = {});

}  // namespace s2c2::harness
