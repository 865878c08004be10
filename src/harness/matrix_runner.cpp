#include "src/harness/matrix_runner.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/util/thread_pool.h"

namespace s2c2::harness {

MatrixAxes MatrixAxes::full() {
  MatrixAxes axes;
  axes.cluster_sizes = {12, 24, 48};
  axes.predictors = all_predictors();
  return axes;
}

MatrixAxes MatrixAxes::large_scale() {
  MatrixAxes axes;
  // Two workload shapes (tall-dense and square-sparse) x two cluster
  // conditions keep the sweep minutes-scale while still exercising every
  // engine's decode/collection path at fleet sizes the paper never ran.
  axes.workloads = {WorkloadKind::kLogisticRegression,
                    WorkloadKind::kPageRank};
  axes.traces = {TraceProfile::kControlledStragglers,
                 TraceProfile::kStableCloud};
  axes.cluster_sizes = {100, 250, 1000};
  axes.predictors = {PredictorKind::kOracle};
  return axes;
}

MatrixAxes MatrixAxes::robustness() {
  MatrixAxes axes;
  axes.traces = robustness_trace_profiles();
  // Last-value prediction, not oracle: health-informed scaling only wraps
  // a real predictor, and the fail-slow column is exactly the setting
  // where the wrap should beat raw last-value tracking.
  axes.predictors = {PredictorKind::kLastValue};
  return axes;
}

ScenarioConfig cell_config(const ScenarioConfig& base, std::size_t workers,
                           PredictorKind predictor) {
  ScenarioConfig cfg = base;
  cfg.predictor = predictor;
  if (workers == 0 || workers == base.workers) return cfg;
  if (base.workers == 0) {
    throw std::invalid_argument("base config needs a nonzero cluster size");
  }
  cfg.workers = workers;
  // Proportional rescale: an explicit k keeps its redundancy *ratio*; the
  // k = 0 default keeps its n - 2 rule (which the effective_k() accessor
  // already scales). Stragglers (and thereby failure-injection deaths)
  // scale with the fleet so profiles stress the same fraction of it.
  if (base.k != 0) {
    const double ratio =
        static_cast<double>(base.k) / static_cast<double>(base.workers);
    cfg.k = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(ratio * static_cast<double>(workers))));
  }
  cfg.stragglers = (base.stragglers * workers) / base.workers;
  return cfg;
}

std::vector<CellCoord> expand_axes(const ScenarioConfig& base,
                                   const MatrixAxes& axes) {
  std::vector<std::size_t> sizes = axes.cluster_sizes;
  if (sizes.empty()) sizes = {base.workers};
  std::vector<CellCoord> coords;
  for (const std::size_t n : sizes) {
    // Prediction-blind engines run once per cluster size (recorded under
    // kOracle); re-running them per predictor would duplicate cells.
    for (const StrategyKind e : axes.engines) {
      if (core::strategy_uses_predictions(e)) continue;
      for (const WorkloadKind w : axes.workloads) {
        for (const TraceProfile t : axes.traces) {
          coords.push_back({e, w, t, n, PredictorKind::kOracle});
        }
      }
    }
    for (const PredictorKind p : axes.predictors) {
      for (const StrategyKind e : axes.engines) {
        if (!core::strategy_uses_predictions(e)) continue;
        for (const WorkloadKind w : axes.workloads) {
          for (const TraceProfile t : axes.traces) {
            coords.push_back({e, w, t, n, p});
          }
        }
      }
    }
  }
  return coords;
}

MatrixResult run_matrix(const ScenarioConfig& base, const MatrixAxes& axes,
                        const RunnerOptions& options) {
  const std::vector<CellCoord> coords = expand_axes(base, axes);
  MatrixResult out;
  out.config = base;
  out.cells.resize(coords.size());
  // Each task owns exactly one preassigned slot, so the output (and every
  // fingerprint derived from it) is identical for any thread count.
  util::parallel_for(coords.size(), options.jobs, [&](std::size_t i) {
    const CellCoord& c = coords[i];
    const ScenarioConfig cfg = cell_config(base, c.workers, c.predictor);
    out.cells[i] = run_cell(cfg, c.engine, c.workload, c.trace);
  });
  return out;
}

}  // namespace s2c2::harness
