// Cross-engine invariants over the scenario matrix (src/harness/):
// determinism under a fixed seed, decodability of every functional cell,
// exact-k allocation coverage on the harness's own traces, and the paper's
// headline waste ordering (S2C2 wastes no more than replication when
// stragglers are present).
#include <gtest/gtest.h>

#include <cmath>

#include "src/harness/matrix_runner.h"
#include "src/harness/scenario_matrix.h"
#include "src/sched/allocation.h"
#include "src/sched/coverage.h"
#include "tests/test_util.h"

namespace s2c2::harness {
namespace {

ScenarioConfig small_config() {
  ScenarioConfig cfg;
  cfg.workers = 12;
  cfg.k = 10;
  cfg.stragglers = 2;
  cfg.rounds = 4;
  cfg.seed = 1234;
  cfg.functional = true;
  return cfg;
}

// The acceptance sweep: 4 engines x 3 workloads x 2 speed traces.
MatrixResult acceptance_matrix(std::uint64_t seed) {
  ScenarioConfig cfg = small_config();
  cfg.seed = seed;
  const auto engines = all_engines();
  const std::vector<WorkloadKind> workloads = {
      WorkloadKind::kLogisticRegression, WorkloadKind::kPageRank,
      WorkloadKind::kHessian};
  const std::vector<TraceProfile> traces = {
      TraceProfile::kControlledStragglers, TraceProfile::kVolatileCloud};
  return run_scenario_matrix(cfg, engines, workloads, traces);
}

// The sweep is deterministic, so read-only tests share one run; only the
// determinism test pays for a second, independent computation.
const MatrixResult& shared_acceptance_matrix() {
  static const MatrixResult m = acceptance_matrix(1234);
  return m;
}

TEST(ScenarioMatrix, SweepsFullCrossProduct) {
  const auto& m = shared_acceptance_matrix();
  EXPECT_EQ(m.cells.size(), 4u * 3u * 2u);
  for (const auto e : all_engines()) {
    for (const auto w : {WorkloadKind::kLogisticRegression,
                         WorkloadKind::kPageRank, WorkloadKind::kHessian}) {
      for (const auto t : {TraceProfile::kControlledStragglers,
                           TraceProfile::kVolatileCloud}) {
        const auto* cell = m.find(e, w, t);
        ASSERT_NE(cell, nullptr)
            << core::strategy_name(e) << "/" << workload_name(w) << "/"
            << trace_profile_name(t);
        EXPECT_EQ(cell->rounds, 4u);
      }
    }
  }
  EXPECT_EQ(m.find(StrategyKind::kS2C2, WorkloadKind::kSvm,
                   TraceProfile::kStableCloud),
            nullptr);
}

TEST(ScenarioMatrix, EveryCellHasFinitePositiveLatencies) {
  const auto& m = shared_acceptance_matrix();
  for (const auto& cell : m.cells) {
    ASSERT_EQ(cell.round_latencies.size(), cell.rounds);
    for (const double l : cell.round_latencies) {
      EXPECT_TRUE(std::isfinite(l));
      EXPECT_GT(l, 0.0);
    }
    EXPECT_NEAR(cell.mean_latency,
                cell.total_latency / static_cast<double>(cell.rounds), 1e-12);
    EXPECT_GT(cell.total_useful, 0.0);
  }
}

TEST(ScenarioMatrix, SameSeedProducesIdenticalEventLogs) {
  const auto& m1 = shared_acceptance_matrix();
  const auto m2 = acceptance_matrix(1234);  // fresh, independent computation
  ASSERT_EQ(m1.cells.size(), m2.cells.size());
  for (std::size_t i = 0; i < m1.cells.size(); ++i) {
    const auto& a = m1.cells[i];
    const auto& b = m2.cells[i];
    ASSERT_EQ(a.round_latencies.size(), b.round_latencies.size());
    for (std::size_t r = 0; r < a.round_latencies.size(); ++r) {
      // Bit-exact, not approximately equal: the harness is a reproducible
      // event log, so any drift is a real regression.
      EXPECT_EQ(a.round_latencies[r], b.round_latencies[r])
          << core::strategy_name(a.engine) << "/" << workload_name(a.workload) << "/"
          << trace_profile_name(a.trace) << " round " << r;
    }
    EXPECT_EQ(a.total_wasted, b.total_wasted);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
  }
  EXPECT_EQ(m1.fingerprint(), m2.fingerprint());
}

TEST(ScenarioMatrix, DifferentSeedsProduceDifferentCloudRuns) {
  ScenarioConfig cfg = small_config();
  const auto a = run_cell(cfg, StrategyKind::kS2C2,
                          WorkloadKind::kLogisticRegression,
                          TraceProfile::kVolatileCloud);
  cfg.seed = 5678;
  const auto b = run_cell(cfg, StrategyKind::kS2C2,
                          WorkloadKind::kLogisticRegression,
                          TraceProfile::kVolatileCloud);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(ScenarioMatrix, FunctionalCodedCellsDecodeExactly) {
  const auto& m = shared_acceptance_matrix();
  std::size_t checked = 0;
  for (const auto& cell : m.cells) {
    if (cell.engine == StrategyKind::kS2C2) {
      EXPECT_TRUE(cell.decode_checked);
      EXPECT_LT(cell.max_decode_error, 1e-6)
          << workload_name(cell.workload) << "/"
          << trace_profile_name(cell.trace);
      ++checked;
    }
    if (cell.engine == StrategyKind::kPoly &&
        cell.workload == WorkloadKind::kHessian) {
      EXPECT_TRUE(cell.decode_checked);
      // Vandermonde solves in the poly evaluation points are less
      // conditioned than the MDS decode; tolerance is relative-ish.
      EXPECT_LT(cell.max_decode_error, 1e-5)
          << trace_profile_name(cell.trace);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 3u * 2u + 2u);  // S2C2 on all cells + poly on Hessian
}

TEST(ScenarioMatrix, AllocationsOnHarnessTracesKeepExactKCoverage) {
  // The decodability guarantee behind every S2C2 cell: proportional
  // allocation over the speeds the harness traces realize must cover every
  // chunk exactly k times, at any time point.
  const ScenarioConfig cfg = small_config();
  for (const auto profile : all_trace_profiles()) {
    const auto traces = make_traces(
        profile, cfg,
        trace_salt(cfg.seed, WorkloadKind::kLogisticRegression, profile));
    ASSERT_EQ(traces.size(), cfg.workers);
    for (const double t : {0.0, 0.01, 0.1, 1.0}) {
      std::vector<double> speeds;
      for (const auto& trace : traces) speeds.push_back(trace.speed_at(t));
      const auto alloc = sched::proportional_allocation(
          speeds, cfg.effective_k(), cfg.chunks_per_partition);
      EXPECT_TRUE(sched::has_exact_coverage(alloc, cfg.effective_k()))
          << trace_profile_name(profile) << " at t=" << t;
    }
  }
}

TEST(ScenarioMatrix, EnginesInSameColumnShareClusterTraces) {
  // The comparison-rig contract: the traces a cell runs on depend only on
  // (seed, workload, profile), never on the engine.
  const ScenarioConfig cfg = small_config();
  const auto salt = trace_salt(cfg.seed, WorkloadKind::kPageRank,
                               TraceProfile::kVolatileCloud);
  const auto a = make_traces(TraceProfile::kVolatileCloud, cfg, salt);
  const auto b = make_traces(TraceProfile::kVolatileCloud, cfg, salt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t w = 0; w < a.size(); ++w) {
    for (const double t : {0.0, 0.005, 0.05, 0.5}) {
      EXPECT_EQ(a[w].speed_at(t), b[w].speed_at(t));
    }
  }
}

TEST(ScenarioMatrix, S2C2WastesNoMoreThanReplicationUnderStragglers) {
  const auto& m = shared_acceptance_matrix();
  for (const auto w : {WorkloadKind::kLogisticRegression,
                       WorkloadKind::kPageRank, WorkloadKind::kHessian}) {
    const auto* s2c2 =
        m.find(StrategyKind::kS2C2, w, TraceProfile::kControlledStragglers);
    const auto* repl = m.find(StrategyKind::kReplication, w,
                              TraceProfile::kControlledStragglers);
    ASSERT_NE(s2c2, nullptr);
    ASSERT_NE(repl, nullptr);
    EXPECT_LE(s2c2->mean_wasted_fraction, repl->mean_wasted_fraction + 1e-12)
        << workload_name(w);
  }
}

TEST(ScenarioMatrix, CostOnlyModeRunsAtScale) {
  ScenarioConfig cfg;
  cfg.workers = 12;
  cfg.rounds = 3;
  cfg.seed = 7;
  cfg.functional = false;
  cfg.scale = 0.1;  // keep the sweep fast in unit tests
  const std::vector<StrategyKind> engines = {StrategyKind::kS2C2,
                                           StrategyKind::kReplication};
  const std::vector<WorkloadKind> workloads = {WorkloadKind::kSvm};
  const std::vector<TraceProfile> traces = {
      TraceProfile::kControlledStragglers};
  const auto m = run_scenario_matrix(cfg, engines, workloads, traces);
  ASSERT_EQ(m.cells.size(), 2u);
  for (const auto& cell : m.cells) {
    EXPECT_FALSE(cell.decode_checked);
    EXPECT_GT(cell.mean_latency, 0.0);
  }
  // With two 5x stragglers, S2C2's squeeze must beat waiting on
  // conventional replication recovery.
  EXPECT_LT(m.cells[0].mean_latency, m.cells[1].mean_latency);
}

TEST(ScenarioMatrix, WorkloadShapesRespectPolyDivisibility) {
  ScenarioConfig cfg = small_config();
  for (const auto w : all_workloads()) {
    const auto s = workload_shape(w, cfg);
    EXPECT_GE(s.rows, 1u);
    EXPECT_GE(s.cols, 1u);
    EXPECT_GE(s.a_blocks, 1u);
    EXPECT_LE(s.a_blocks * s.a_blocks, cfg.workers);
  }
  cfg.functional = false;
  cfg.scale = 2.0;
  const auto big = workload_shape(WorkloadKind::kSvm, cfg);
  const auto base = [&] {
    ScenarioConfig c = cfg;
    c.scale = 1.0;
    return workload_shape(WorkloadKind::kSvm, c);
  }();
  EXPECT_EQ(big.rows, 2 * base.rows);
}

// ---- parallel matrix runner (src/harness/matrix_runner.h) ----

// A widened grid small enough for unit tests: 2 engines x 1 workload x
// {controlled, failure} x 2 cluster scales x {oracle, last-value}.
MatrixAxes runner_axes() {
  MatrixAxes axes;
  axes.engines = {StrategyKind::kS2C2, StrategyKind::kReplication};
  axes.workloads = {WorkloadKind::kLogisticRegression};
  axes.traces = {TraceProfile::kControlledStragglers,
                 TraceProfile::kFailureInjection};
  axes.cluster_sizes = {12, 24};
  axes.predictors = {PredictorKind::kOracle, PredictorKind::kLastValue};
  return axes;
}

ScenarioConfig runner_config() {
  ScenarioConfig cfg;
  cfg.workers = 12;
  cfg.rounds = 4;
  cfg.seed = 99;
  cfg.functional = true;
  return cfg;
}

TEST(MatrixRunner, ParallelRunIsByteIdenticalToSerial) {
  // The tentpole determinism contract: every cell owns its seeded RNGs and
  // traces, so a 1-thread and an N-thread sweep must produce byte-equal
  // fingerprints, cell for cell, in the same order.
  const auto serial = run_matrix(runner_config(), runner_axes(), {.jobs = 1});
  const auto parallel =
      run_matrix(runner_config(), runner_axes(), {.jobs = 4});
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].fingerprint(), parallel.cells[i].fingerprint())
        << core::strategy_name(serial.cells[i].engine) << "/n="
        << serial.cells[i].workers << "/"
        << predictor_name(serial.cells[i].predictor) << "/"
        << trace_profile_name(serial.cells[i].trace);
    EXPECT_EQ(serial.cells[i].round_latencies,
              parallel.cells[i].round_latencies);
  }
  EXPECT_EQ(serial.fingerprint(), parallel.fingerprint());
}

TEST(MatrixRunner, ExpandAxesSkipsPredictorVariantsForPredictionBlindEngines) {
  const auto coords = expand_axes(runner_config(), runner_axes());
  // Per cluster size: replication once per (workload, trace) = 2 cells,
  // s2c2 per predictor = 2 x 2 = 4 cells. Two sizes => 12 cells total.
  EXPECT_EQ(coords.size(), 12u);
  std::size_t replication = 0;
  for (const auto& c : coords) {
    if (c.engine == StrategyKind::kReplication) {
      EXPECT_EQ(c.predictor, PredictorKind::kOracle);
      ++replication;
    }
  }
  EXPECT_EQ(replication, 4u);
}

TEST(MatrixRunner, CellConfigScalesKAndStragglersProportionally) {
  ScenarioConfig base;
  base.workers = 12;
  base.k = 10;
  base.stragglers = 2;
  const auto big = cell_config(base, 48, PredictorKind::kLstm);
  EXPECT_EQ(big.workers, 48u);
  EXPECT_EQ(big.effective_k(), 40u);
  EXPECT_EQ(big.stragglers, 8u);
  EXPECT_EQ(big.predictor, PredictorKind::kLstm);
  // The k = 0 default keeps its n - 2 rule.
  base.k = 0;
  EXPECT_EQ(cell_config(base, 24, PredictorKind::kOracle).effective_k(), 22u);
}

TEST(MatrixRunner, FailureInjectionCellsExerciseRecovery) {
  // The S2C2 engine must *survive* the failure-injection profile: dead
  // workers trip the §4.3 timeout (possibly cascading into recovery
  // waves), and the decode still matches the uncoded reference.
  ScenarioConfig cfg = runner_config();
  const auto cell = run_cell(cfg, StrategyKind::kS2C2,
                             WorkloadKind::kLogisticRegression,
                             TraceProfile::kFailureInjection);
  ASSERT_FALSE(cell.failed) << cell.error;
  EXPECT_GT(cell.timeout_rate, 0.0);
  EXPECT_TRUE(cell.decode_checked);
  EXPECT_LT(cell.max_decode_error, 1e-6);
  // (No waste assertion: a worker that dies before its input arrives has
  // no progress to discard, which this seed happens to produce.)
  EXPECT_GT(cell.total_useful, 0.0);
}

TEST(MatrixRunner, FailureCellsAreDeterministicEvenWhenEnginesFail) {
  // Baselines may legitimately hit unrecoverable cluster failures under
  // failure injection; the cell then records the error as data, and two
  // identical sweeps agree byte-for-byte.
  ScenarioConfig cfg = runner_config();
  cfg.functional = false;
  cfg.scale = 0.05;
  MatrixAxes axes = runner_axes();
  axes.engines = all_engines();
  axes.traces = {TraceProfile::kFailureInjection};
  const auto a = run_matrix(cfg, axes, {.jobs = 3});
  const auto b = run_matrix(cfg, axes, {.jobs = 1});
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].failed, b.cells[i].failed);
    EXPECT_EQ(a.cells[i].error, b.cells[i].error);
    EXPECT_EQ(a.cells[i].fingerprint(), b.cells[i].fingerprint());
  }
  // The S2C2 cells must be among the survivors.
  for (const auto& cell : a.cells) {
    if (cell.engine == StrategyKind::kS2C2) {
      EXPECT_FALSE(cell.failed)
          << "n=" << cell.workers << " "
          << predictor_name(cell.predictor) << ": " << cell.error;
    }
  }
}

TEST(MatrixRunner, PredictorAxisChangesOutcomes) {
  // A learned predictor on volatile traces cannot reproduce the oracle's
  // event log; the axis must actually reach the engines.
  ScenarioConfig cfg = runner_config();
  cfg.predictor = PredictorKind::kOracle;
  const auto oracle = run_cell(cfg, StrategyKind::kS2C2,
                               WorkloadKind::kLogisticRegression,
                               TraceProfile::kVolatileCloud);
  cfg.predictor = PredictorKind::kArima;
  const auto arima = run_cell(cfg, StrategyKind::kS2C2,
                              WorkloadKind::kLogisticRegression,
                              TraceProfile::kVolatileCloud);
  EXPECT_NE(oracle.fingerprint(), arima.fingerprint());
  ASSERT_FALSE(arima.failed) << arima.error;
  EXPECT_TRUE(arima.decode_checked);
  EXPECT_LT(arima.max_decode_error, 1e-6);  // mispredictions never corrupt
}

TEST(MatrixRunner, LstmPredictorCellRunsDeterministically) {
  // The heaviest predictor: in-cell LSTM training must stay deterministic
  // (the trained model is part of the cell's seeded computation).
  ScenarioConfig cfg = runner_config();
  cfg.rounds = 3;
  cfg.predictor = PredictorKind::kLstm;
  const auto a = run_cell(cfg, StrategyKind::kS2C2,
                          WorkloadKind::kLogisticRegression,
                          TraceProfile::kStableCloud);
  const auto b = run_cell(cfg, StrategyKind::kS2C2,
                          WorkloadKind::kLogisticRegression,
                          TraceProfile::kStableCloud);
  ASSERT_FALSE(a.failed) << a.error;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_LT(a.max_decode_error, 1e-6);
}

TEST(ScenarioMatrix, RejectsDegenerateClusters) {
  ScenarioConfig cfg = small_config();
  cfg.workers = 1;
  cfg.k = 1;
  EXPECT_THROW((void)run_cell(cfg, StrategyKind::kS2C2,
                              WorkloadKind::kLogisticRegression,
                              TraceProfile::kControlledStragglers),
               std::invalid_argument);
}

TEST(ScenarioMatrix, RejectsKAboveWorkers) {
  // Replication never reads k, so without the up-front check its cell
  // would run anyway, while a coded cell fails inside the generator
  // matrix with a precondition message instead of the harness's own.
  ScenarioConfig cfg = small_config();  // 12 workers
  cfg.k = 13;
  for (const StrategyKind e :
       {StrategyKind::kS2C2, StrategyKind::kReplication}) {
    try {
      (void)run_cell(cfg, e, WorkloadKind::kLogisticRegression,
                     TraceProfile::kControlledStragglers);
      ADD_FAILURE() << core::strategy_name(e) << " ran with k > workers";
    } catch (const std::invalid_argument& ex) {
      EXPECT_STREQ(ex.what(),
                   "scenario matrix needs k <= workers (k = 13, workers = 12)")
          << core::strategy_name(e);
    }
  }
  cfg.k = 12;  // k == workers is the largest legal code
  EXPECT_FALSE(run_cell(cfg, StrategyKind::kReplication,
                        WorkloadKind::kLogisticRegression,
                        TraceProfile::kControlledStragglers)
                   .failed);
}

}  // namespace
}  // namespace s2c2::harness
