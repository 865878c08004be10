// Deterministic cross-engine scenario matrix (the repo's comparison rig).
//
// The paper's evaluation is a grid: straggler-mitigation strategy x
// workload x cluster condition. This harness operationalizes that grid as
// a single sweep — {S2C2, replication+LATE, polynomial coding,
// over-decomposition} x {logistic regression, PageRank, SVM, Hessian} x
// {speed-trace profiles} — under one fixed RNG seed, so every cell is
// reproducible bit-for-bit and regressions in any engine/workload pair are
// caught by diffing fingerprints.
//
// Consumers (the first three through src/harness/matrix_runner.h, the
// parallel executor that adds the cluster-scale and predictor axes):
//   * tests/scenario_matrix_test.cpp — cross-engine invariants
//     (decodability, exact-k coverage, S2C2 waste <= replication waste);
//   * bench/bench_scenario_matrix.cpp — the paper-scale latency table;
//   * examples/scenario_cli.cpp --matrix — the user-facing sweep;
//   * src/harness/job_driver.h — reuses the trace/cluster/predictor
//     column machinery (trace_salt, make_cluster, make_column_predictor)
//     so job-level and round-level comparisons share one clock and fleet.
//
// Determinism contract: every stochastic choice (traces, placement,
// operators, predictor training) derives from ScenarioConfig::seed mixed
// with the cell's coordinates, so run_cell(config, ...) is a pure function
// of its arguments and run_scenario_matrix(config) ==
// run_scenario_matrix(config) exactly — the property the parallel runner
// leans on to shard cells across threads without changing a single bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/strategy_config.h"
#include "src/predict/lstm.h"
#include "src/predict/predictors.h"
#include "src/sim/speed_trace.h"

namespace s2c2::harness {

/// The harness sweeps strategies by their core::StrategyKind (the unified
/// taxonomy in src/core/strategy_config.h — the pre-PR-5 EngineKind enum
/// is gone). The matrix's engine axis is the four paper families returned
/// by all_engines(): kS2C2, kReplication, kPoly, kOverDecomp.
using StrategyKind = core::StrategyKind;

enum class WorkloadKind {
  kLogisticRegression,  // tall dense operator (X and Xᵀ products, §6.3)
  kPageRank,            // square link-matrix power iteration (§6.3)
  kSvm,                 // hinge-loss training shape (§7.2)
  kHessian,             // bilinear Aᵀ·diag(x)·A (§5, poly's home turf)
};

enum class TraceProfile {
  kControlledStragglers,  // fixed 5x-slow nodes (§6.5/§7.1 cluster)
  kStableCloud,           // low-volatility cloud regime (Fig 8)
  kVolatileCloud,         // frequent regime switches (Fig 10)
  kFailureInjection,      // workers dying mid-round (§4.3 recovery / kNever)
  // Robustness profiles (the PR 6 trace zoo). Appended after the original
  // four — enum values feed seeds and fingerprints, so the order above is
  // wire format. all_trace_profiles() still returns only the original
  // four (the golden-pinned default sweep); these live in
  // robustness_trace_profiles() / extended_trace_profiles().
  kFailSlow,          // monotone degradation toward a floor (health drift)
  kBurstyColocation,  // short deep co-tenant bursts, fast recovery
  kDiurnal,           // per-node periodic contention, quiet baseline
  kByzantine,         // corrupted products from <= n-k-1 workers
};

/// Speed-information source for the prediction-capable engines (the S2C2,
/// poly, and over-decomposition engines; replication ignores it). Oracle
/// reads the true trace speed at round start; the rest are the paper's
/// §6.1 predictor lineup trained on a per-column seeded corpus.
enum class PredictorKind {
  kOracle,
  kLastValue,
  kArima,  // ARIMA(1,0,1) fit by conditional sum of squares
  kLstm,   // the paper's 4-hidden-unit LSTM, trained in-cell
};

// Strategy naming/parsing lives in core (core::strategy_name /
// core::parse_strategy); the helpers below cover the harness-local axes.
[[nodiscard]] const char* workload_name(WorkloadKind w);
[[nodiscard]] const char* trace_profile_name(TraceProfile t);
[[nodiscard]] const char* predictor_name(PredictorKind p);

/// The matrix's engine axis: the four paper strategy families. Prediction
/// use (core::strategy_uses_predictions) decides which of them the
/// predictor axis multiplies; the others run once per column. This list
/// drives the default sweep whose fingerprints are golden-pinned, so it
/// must never grow — new kinds live in extended_engines().
[[nodiscard]] std::vector<StrategyKind> all_engines();
/// Every kind the matrix can run as a cell: the four paper families plus
/// the later kinds (s2c2-basic, mds, poly-conventional, lt, agc).
/// CLI parsing and the conformance suite iterate this list.
[[nodiscard]] std::vector<StrategyKind> extended_engines();
/// Wire-format axis id of a matrix engine — feeds cell seeds and cell
/// fingerprints. The legacy four are pinned at 0..3 by the PR 5 golden
/// fingerprints; later kinds append new ids and NEVER renumber old ones.
[[nodiscard]] std::uint64_t engine_axis_id(StrategyKind e);
[[nodiscard]] std::vector<WorkloadKind> all_workloads();
/// The original four profiles only — this list drives the default sweep
/// whose fingerprints are golden-pinned, so it must never grow.
[[nodiscard]] std::vector<TraceProfile> all_trace_profiles();
/// The PR 6 robustness additions (fail-slow, bursty, diurnal, byzantine).
[[nodiscard]] std::vector<TraceProfile> robustness_trace_profiles();
/// Original four + robustness profiles, in enum order (CLI parsing).
[[nodiscard]] std::vector<TraceProfile> extended_trace_profiles();
/// True for the robustness profiles. Cells on these profiles hash their
/// robustness counters (and may run health-informed prediction); cells on
/// the original profiles keep the pinned PR 5 fingerprints bit-for-bit.
[[nodiscard]] bool trace_profile_is_robustness(TraceProfile t);
[[nodiscard]] std::vector<PredictorKind> all_predictors();

/// The MDS parameter a harness config's `k` field stands for: `k` itself,
/// or for k = 0 the default n - 2 (n when n < 3). Every config's
/// effective_k() reads this one rule.
[[nodiscard]] constexpr std::size_t resolve_k(std::size_t workers,
                                              std::size_t k) {
  return k != 0 ? k : (workers >= 3 ? workers - 2 : workers);
}

/// Throws std::invalid_argument("<entry> needs k <= workers (k = .., workers
/// = ..)") unless resolve_k(workers, k) <= workers. Every harness entry
/// point (run_cell, run_serve, run_job) checks this up front, for every
/// strategy: the uncoded baselines never read k and would run anyway,
/// while the coded ones would fail deep in the generator matrix.
void require_k_within_workers(const char* entry, std::size_t workers,
                              std::size_t k);

/// A speed source built for one (workload, trace) column. `predictor` is
/// null for PredictorKind::kOracle (engines then read the true trace speed
/// via their oracle flag); the learned predictors are trained per column
/// from the config seed, memoized on the training salt, so every engine —
/// and every consumer (matrix cells, job driver) — in a column forecasts
/// from an identically-trained model. The LstmPredictor adapter holds a
/// reference into `lstm`, so the bundle must outlive the engine it feeds.
struct ColumnPredictor {
  std::unique_ptr<predict::SpeedPredictor> predictor;  // null for oracle
  std::shared_ptr<const predict::Lstm> lstm;           // keeps model alive
  [[nodiscard]] bool oracle() const { return predictor == nullptr; }
};

struct ScenarioConfig {
  std::size_t workers = 12;
  std::size_t k = 0;  // MDS parameter; 0 = workers - 2
  std::size_t stragglers = 2;  // controlled profile only
  std::size_t chunks_per_partition = 24;
  std::size_t rounds = 6;
  std::uint64_t seed = 42;

  /// Speed source for prediction-capable engines. Non-oracle predictors are
  /// trained/seeded per (seed, workload, profile) column, so every engine in
  /// a column forecasts from the same model.
  PredictorKind predictor = PredictorKind::kOracle;

  /// Functional mode runs real (small) operators through the engines;
  /// cells with a decode — the S2C2 engine everywhere, the poly engine on
  /// the Hessian workload — verify it against the uncoded reference
  /// (decode_checked / max_decode_error). The uncoded baselines have
  /// nothing to decode and stay latency-shape-only at functional scale.
  /// Cost-only mode simulates latency shapes at paper scale.
  bool functional = false;

  /// Multiplies cost-only operator rows (scale-up studies).
  double scale = 1.0;

  /// Intra-round (per-engine) parallelism, forwarded to
  /// core::EngineParams::inner_jobs: 1 (default) keeps the serial,
  /// allocation-free round loop; N >= 2 fans each cell's large chunk
  /// products over an N-way engine-owned pool; 0 uses every hardware
  /// thread. run_matrix hands it to every cell unchanged. Bitwise-
  /// invariant: every cell fingerprint is identical at any inner_jobs,
  /// and it composes with the matrix runner's outer RunnerOptions::jobs
  /// sharding (a cell on a pool worker fans its chunks out through its
  /// engine pool's help-first parallel_for, so threads never multiply).
  std::size_t inner_jobs = 1;

  [[nodiscard]] std::size_t effective_k() const {
    return resolve_k(workers, k);
  }
};

/// Operator geometry of one workload cell. `a_blocks` only matters for the
/// polynomial engine (d_cols is always divisible by it).
struct WorkloadShape {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t a_blocks = 3;
  bool sparse = false;  // PageRank's link matrix
};

[[nodiscard]] WorkloadShape workload_shape(WorkloadKind w,
                                           const ScenarioConfig& config);

/// Deterministic per-cell seed: config.seed mixed with the coordinates.
/// Seeds cell-local randomness (operators, replica placement).
[[nodiscard]] std::uint64_t cell_seed(std::uint64_t seed, StrategyKind e,
                                      WorkloadKind w, TraceProfile t);

/// Trace salt for a (workload, profile) column — deliberately independent
/// of the engine, so every engine in a column runs on the *same* realized
/// cluster traces and cross-engine comparisons are apples-to-apples.
[[nodiscard]] std::uint64_t trace_salt(std::uint64_t seed, WorkloadKind w,
                                       TraceProfile t);

/// The cluster traces a cell runs on, reproducible from (config, profile,
/// salt). Exposed so tests can assert allocation invariants against the
/// exact speeds the engines saw.
[[nodiscard]] std::vector<sim::SpeedTrace> make_traces(
    TraceProfile profile, const ScenarioConfig& config, std::uint64_t salt);

/// Cluster spec for a cell: traces + network/flops calibrated to the
/// workload scale (functional cells run on a proportionally slower fleet so
/// network latency does not swamp the tiny operators).
[[nodiscard]] core::ClusterSpec make_cluster(TraceProfile profile,
                                             const ScenarioConfig& config,
                                             std::uint64_t salt);

/// Builds config.predictor for the (w, t) column, sized to config.workers.
/// Pure in its arguments (training is seeded + memoized per column), so
/// concurrent callers at any thread count get byte-identical forecasts.
[[nodiscard]] ColumnPredictor make_column_predictor(
    const ScenarioConfig& config, WorkloadKind w, TraceProfile t);

struct CellResult {
  StrategyKind engine{};
  WorkloadKind workload{};
  TraceProfile trace{};
  std::size_t workers = 0;  // cluster size the cell ran at
  PredictorKind predictor = PredictorKind::kOracle;

  /// Engine threw (e.g. an unrecoverable cluster failure under the
  /// failure-injection profile). Deterministic: the same config fails the
  /// same way, and `error` participates in the fingerprint.
  bool failed = false;
  std::string error;

  std::size_t rounds = 0;
  double total_latency = 0.0;
  double mean_latency = 0.0;
  double timeout_rate = 0.0;

  // Waste accounting (sim/accounting.h).
  double total_useful = 0.0;
  double total_wasted = 0.0;
  double mean_wasted_fraction = 0.0;

  // Functional-mode decode verification.
  bool decode_checked = false;
  double max_decode_error = 0.0;

  // Robustness telemetry (sim::RoundStats), summed over rounds except for
  // degrading_workers (the final round's health-monitor flag count).
  // Hashed into the fingerprint only on robustness profiles, so the
  // original profiles' goldens are untouched.
  std::size_t byzantine_detected = 0;
  std::size_t corrupted_chunks = 0;
  std::size_t degrading_workers = 0;

  /// Per-round latencies — the cell's event log; fingerprint() hashes the
  /// exact bit patterns, so "same seed => identical log" is testable.
  std::vector<double> round_latencies;

  [[nodiscard]] std::string fingerprint() const;
};

struct MatrixResult {
  ScenarioConfig config;
  std::vector<CellResult> cells;

  /// nullptr when the cell was not part of the sweep. The three-coordinate
  /// form returns the first match over the runner's extra axes.
  [[nodiscard]] const CellResult* find(StrategyKind e, WorkloadKind w,
                                       TraceProfile t) const;
  [[nodiscard]] const CellResult* find(StrategyKind e, WorkloadKind w,
                                       TraceProfile t, std::size_t workers,
                                       PredictorKind p) const;

  /// Hash over every cell fingerprint (whole-sweep determinism check).
  [[nodiscard]] std::string fingerprint() const;
};

/// Runs a single cell.
[[nodiscard]] CellResult run_cell(const ScenarioConfig& config,
                                  StrategyKind e, WorkloadKind w,
                                  TraceProfile t);

/// Sweeps the cross product of the given axes.
[[nodiscard]] MatrixResult run_scenario_matrix(
    const ScenarioConfig& config, std::span<const StrategyKind> engines,
    std::span<const WorkloadKind> workloads,
    std::span<const TraceProfile> traces);

/// Full 4 x 4 x 3 sweep.
[[nodiscard]] MatrixResult run_scenario_matrix(const ScenarioConfig& config);

}  // namespace s2c2::harness
