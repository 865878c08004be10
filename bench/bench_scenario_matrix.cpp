// Cross-engine scenario matrix at paper scale (cost-only) on the parallel
// matrix runner: every engine x workload x trace-profile cell, widened with
// the cluster-scale and predictor axes, from one fixed seed. This is the
// condensed version of the paper's whole evaluation section — Figs 6-11
// each correspond to a slice of this table — plus the executor benchmark:
// the same grid is run at --jobs 1 and --jobs N and must produce identical
// fingerprints, with the wall-clock ratio reported as the sharding speedup.
//
//   build/bench/bench_scenario_matrix [seed] [rounds] [scale] [jobs]
//
// jobs defaults to all hardware threads (min 4, so the determinism cross-
// check always exercises a genuinely concurrent run).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>

#include "src/harness/matrix_runner.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace s2c2;
  using Clock = std::chrono::steady_clock;

  harness::ScenarioConfig cfg;
  cfg.workers = 12;
  cfg.stragglers = 2;
  cfg.rounds = 12;
  cfg.functional = false;
  std::size_t jobs =
      std::max<std::size_t>(4, util::ThreadPool::hardware_threads());
  if (argc > 1) cfg.seed = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) cfg.rounds = std::strtoul(argv[2], nullptr, 10);
  if (argc > 3) cfg.scale = std::strtod(argv[3], nullptr);
  if (argc > 4) jobs = std::strtoul(argv[4], nullptr, 10);

  // The widened grid: 3 cluster scales x 4 predictors x engines x
  // workloads x 4 trace profiles (failure injection included), with the
  // later kinds lt (threshold collection + peel decode) and agc
  // (adaptive redundancy) riding beside the four paper families. Workloads
  // are trimmed to the two mat-vec shapes so a laptop run stays minutes.
  harness::MatrixAxes axes = harness::MatrixAxes::full();
  axes.engines.push_back(harness::StrategyKind::kLt);
  axes.engines.push_back(harness::StrategyKind::kAgc);
  axes.workloads = {harness::WorkloadKind::kLogisticRegression,
                    harness::WorkloadKind::kPageRank};

  std::cout << "\n=== Scenario matrix — engine x workload x trace x scale x "
               "predictor ===\ncost-only paper-scale operators, seed "
            << cfg.seed << ", " << cfg.rounds << " rounds/cell, "
            << harness::expand_axes(cfg, axes).size() << " cells\n\n";

  // Untimed warmup: trains the per-column predictor models once, so the
  // timed runs compare the executor rather than who pays the model cache.
  (void)harness::run_matrix(cfg, axes, {.jobs = jobs});

  const auto t_serial0 = Clock::now();
  const auto serial = harness::run_matrix(cfg, axes, {.jobs = 1});
  const double serial_s =
      std::chrono::duration<double>(Clock::now() - t_serial0).count();

  const auto t_par0 = Clock::now();
  const auto parallel = harness::run_matrix(cfg, axes, {.jobs = jobs});
  const double parallel_s =
      std::chrono::duration<double>(Clock::now() - t_par0).count();

  util::Table t({"engine", "workload", "trace", "n", "predictor",
                 "mean latency (ms)", "timeout %", "wasted %"});
  for (const auto& cell : parallel.cells) {
    t.add_row({core::strategy_name(cell.engine),
               harness::workload_name(cell.workload),
               harness::trace_profile_name(cell.trace),
               std::to_string(cell.workers),
               harness::predictor_name(cell.predictor),
               cell.failed ? "failed" : util::fmt(cell.mean_latency * 1e3, 3),
               cell.failed ? "-" : util::fmt(100.0 * cell.timeout_rate, 1),
               cell.failed ? "-"
                           : util::fmt(100.0 * cell.mean_wasted_fraction, 1)});
  }
  t.print();

  // Normalized headline: S2C2 vs the mat-vec baselines on the straggler
  // cluster (the paper's Fig 6/7 comparison, collapsed to means), at the
  // base scale with oracle speeds.
  std::cout << "\nnormalized mean latency vs s2c2 (controlled stragglers, "
               "logreg, n=12, oracle):\n";
  const auto* ref = parallel.find(harness::StrategyKind::kS2C2,
                                  harness::WorkloadKind::kLogisticRegression,
                                  harness::TraceProfile::kControlledStragglers,
                                  12, harness::PredictorKind::kOracle);
  for (const auto e :
       {harness::StrategyKind::kS2C2, harness::StrategyKind::kReplication,
        harness::StrategyKind::kOverDecomp, harness::StrategyKind::kLt,
        harness::StrategyKind::kAgc}) {
    const auto* cell =
        parallel.find(e, harness::WorkloadKind::kLogisticRegression,
                      harness::TraceProfile::kControlledStragglers, 12,
                      harness::PredictorKind::kOracle);
    if (ref == nullptr || cell == nullptr || ref->mean_latency <= 0.0) break;
    std::cout << "  " << core::strategy_name(e) << ": "
              << util::fmt(cell->mean_latency / ref->mean_latency, 3) << "x\n";
  }

  const bool identical = serial.fingerprint() == parallel.fingerprint();
  std::cout << "\nexecutor: jobs=1 " << util::fmt(serial_s, 2)
            << " s | jobs=" << jobs << " " << util::fmt(parallel_s, 2)
            << " s | speedup " << util::fmt(serial_s / parallel_s, 2)
            << "x (" << util::ThreadPool::hardware_threads()
            << " hardware threads)\n";
  std::cout << "determinism: serial and parallel fingerprints "
            << (identical ? "IDENTICAL" : "DIFFER — REGRESSION") << "\n";
  std::cout << "\nmatrix fingerprint: " << parallel.fingerprint() << "\n";
  return identical ? 0 : 1;
}
