// End-to-end iterative job driver (the paper's §7 evaluation unit).
//
// The scenario matrix measures isolated rounds; the paper's headline
// results are *job-level*: full iterative applications — logistic
// regression and SVM run to objective convergence, PageRank and graph
// filtering to fixed-point tolerance — executed through a
// straggler-mitigation strategy, with every per-iteration matrix-vector
// product straggler-protected. This driver runs one such job end to end,
// feeding each round's decoded product back as the next iterate, and
// records what the paper's figures plot: job completion time (Figs 7-9),
// cumulative useful/wasted/busy work (Fig 10's utilization analogue),
// timeout and misprediction behaviour (§4.3), and the convergence curve.
//
// Strategies:
//   * kS2C2        — MDS code + general S2C2 allocation; real decode.
//   * kMds         — conventional MDS (fastest-k, prior work); real decode.
//   * kReplication — uncoded 3-replication + LATE speculation. Uncoded
//                    execution computes the exact product, so the driver
//                    takes the math from a direct multiply and the latency
//                    from the ReplicationEngine round — the iterate is
//                    exact by construction, only time is simulated.
//   * kOverDecomp  — Charm++-style over-decomposition; same uncoded rule.
//
// Determinism contract (same as the scenario matrix): every stochastic
// choice — operators, traces, predictor training — derives from
// JobConfig::seed mixed with the job's (app, trace) column, *independent
// of strategy*, so all strategies of a column run the same dataset on the
// same realized cluster and comparisons are apples-to-apples. run_job is a
// pure function of its config; run_job_suite shards jobs across a thread
// pool and is byte-identical at any thread count (see fingerprint()).
//
// Because the operator and the uncoded reference trajectory do not depend
// on the strategy, they are built once per (seed, app, trace,
// max_iterations) column in a process-wide memo and shared read-only by
// every job of that column, on any thread. A build is a pure function of
// its key, so a cached column and a fresh build are byte-identical and the
// memo never changes a result. Inserting a new column drops the columns of
// any other (seed, app): suites run app-major, so both traces of the
// current app stay warm while at most one app's columns stay resident.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/harness/scenario_matrix.h"

namespace s2c2::harness {

enum class JobApp {
  kLogReg,       // logistic regression to objective convergence (§6.3)
  kSvm,          // hinge-loss SVM to objective convergence (§7.2)
  kPageRank,     // power iteration to L1 fixed-point tolerance (§6.3)
  kGraphFilter,  // Laplacian diffusion to L-inf fixed-point tolerance (§6.3)
};

[[nodiscard]] const char* job_app_name(JobApp a);
[[nodiscard]] std::vector<JobApp> all_job_apps();

/// The driver's strategy axis: {kS2C2, kMds, kReplication, kOverDecomp}
/// (naming/parsing and the prediction-use predicate live in core —
/// core::strategy_name / core::strategy_uses_predictions; strategies that
/// ignore predictions record kOracle in the result). The default grid is
/// pinned by the JobSuite golden fingerprint and must never grow; the
/// later kinds live in extended_job_strategies().
[[nodiscard]] std::vector<StrategyKind> all_job_strategies();
/// Every kind run_job accepts: the default four plus {kLt, kAgc}.
[[nodiscard]] std::vector<StrategyKind> extended_job_strategies();

/// Workload column an app shares traces/operators with. The first three
/// apps map to their scenario-matrix namesakes; graph filtering reuses the
/// fourth (Hessian) column's salt slot so its traces stay independent of
/// the other apps' columns while remaining strategy-independent.
[[nodiscard]] WorkloadKind job_trace_column(JobApp a);

struct JobConfig {
  JobApp app = JobApp::kLogReg;
  StrategyKind strategy = StrategyKind::kS2C2;
  TraceProfile trace = TraceProfile::kControlledStragglers;

  std::size_t workers = 12;
  std::size_t k = 0;             // MDS parameter; 0 = workers - 2
  /// Controlled/failure profiles. Default 3 > n - k: one straggler more
  /// than the code's slack, the regime where conventional MDS must wait on
  /// a straggler and slack squeezing starts to pay (paper Fig 6's x-axis).
  std::size_t stragglers = 3;
  std::size_t chunks_per_partition = 24;
  std::uint64_t seed = 42;

  /// Intra-round parallelism for the job's engines (forwarded to
  /// core::EngineParams::inner_jobs; 1 = serial, 0 = hardware threads).
  /// Job results are bitwise-invariant across inner_jobs.
  std::size_t inner_jobs = 1;

  /// Speed source for prediction-capable strategies (s2c2, overdecomp).
  PredictorKind predictor = PredictorKind::kOracle;

  /// Iteration cap; jobs that hit it report converged = false.
  std::size_t max_iterations = 25;

  /// Convergence criterion, per app:
  ///   logreg/svm   — relative objective change <= tolerance;
  ///   pagerank     — L1 rank change <= tolerance;
  ///   graph filter — L-inf norm of the current diffusion term <= tolerance.
  double tolerance = 1e-4;

  [[nodiscard]] std::size_t effective_k() const {
    return resolve_k(workers, k);
  }

  /// The equivalent scenario config for trace/cluster/predictor reuse:
  /// functional mode, rounds sized to the iteration budget (two coded
  /// rounds per GD iteration), same seed/workers/k/stragglers/chunks.
  [[nodiscard]] ScenarioConfig scenario() const;
};

struct JobResult {
  JobApp app{};
  StrategyKind strategy{};
  TraceProfile trace{};
  std::size_t workers = 0;
  PredictorKind predictor = PredictorKind::kOracle;

  /// Strategy ran out of redundancy (e.g. replication under failure
  /// injection). Deterministic; `error` participates in the fingerprint.
  bool failed = false;
  std::string error;

  std::size_t iterations = 0;    // application iterations executed
  bool converged = false;
  std::size_t rounds = 0;        // coded rounds (2x iterations for GD apps)

  /// Job completion time: simulated seconds summed over every coded round
  /// on the job's critical path (the Figs 7-9 quantity).
  double completion_time = 0.0;

  // Cumulative cluster accounting across the whole job (Fig 10 analogue).
  double total_useful = 0.0;
  double total_wasted = 0.0;
  double total_busy = 0.0;
  double mean_wasted_fraction = 0.0;  // mean of per-worker wasted fractions

  double timeout_rate = 0.0;          // fraction of rounds with a timeout
  /// Mean of the coded channels' §6.1 mis-prediction rates (fraction of
  /// rounds in which any worker's prediction was off by > 15%); 0 for
  /// uncoded baselines.
  double misprediction_rate = 0.0;
  std::size_t reassigned_chunks = 0;  // §4.3 recovery volume
  std::size_t data_moves = 0;         // baseline partition migrations

  // Robustness and worker-health telemetry (telemetry/health_monitor.h;
  // docs/DESIGN.md §7). Summed over rounds except degrading_workers (the
  // health monitor's flag count at job end) and health_min_ttf (the
  // smallest estimated time-to-failure across the fleet at job end; 0 when
  // the strategy has no monitor). Hashed into the fingerprint only on the
  // robustness trace profiles so the PR 5 goldens stay valid.
  std::size_t byzantine_detected = 0;
  std::size_t corrupted_chunks = 0;
  std::size_t degrading_workers = 0;
  double health_min_ttf = 0.0;

  /// Decode-cache telemetry summed over the job's coded channels
  /// (coding/decode_context.h): distinct responder-set factorizations
  /// resident at job end, and lookups served from cache across every
  /// round — iterative jobs repeat responder sets heavily, so hits should
  /// dwarf sets. Zero for the uncoded baselines (no decode stage).
  std::size_t decode_sets = 0;
  std::size_t decode_cache_hits = 0;

  /// Per-iteration convergence metric (objective for logreg/svm, L1 delta
  /// for pagerank, term norm for graph filter); the job's event log —
  /// fingerprint() hashes the exact bit patterns.
  std::vector<double> convergence;
  double final_metric = 0.0;

  /// Max abs deviation of the coded trajectory from the uncoded reference
  /// trajectory, iteration by iteration (the column's shared reference) —
  /// ~1e-12-ish decode noise for coded strategies, exact
  /// 0 for the uncoded baselines. A large value here means a strategy
  /// silently degraded the *math*, not just the latency.
  double solution_error = 0.0;

  [[nodiscard]] std::string fingerprint() const;
};

/// Runs one job end to end. Pure in `config` (bit-for-bit reproducible).
[[nodiscard]] JobResult run_job(const JobConfig& config);

/// Axis selection for a suite sweep: apps x strategies x traces, all at
/// the base config's cluster/predictor settings.
struct JobGrid {
  std::vector<JobApp> apps = all_job_apps();
  std::vector<StrategyKind> strategies = all_job_strategies();
  std::vector<TraceProfile> traces = {TraceProfile::kControlledStragglers,
                                      TraceProfile::kVolatileCloud};
};

struct JobSuiteResult {
  JobConfig base;
  std::vector<JobResult> jobs;

  /// nullptr when the job was not part of the sweep.
  [[nodiscard]] const JobResult* find(JobApp a, StrategyKind s,
                                      TraceProfile t) const;

  /// Hash over every job fingerprint (whole-suite determinism check).
  [[nodiscard]] std::string fingerprint() const;
};

/// Runs the grid's cross product, `jobs_threads` jobs at a time on a
/// thread pool (0 = hardware concurrency, 1 = serial). Output order is the
/// axis nesting order (app, strategy, trace) and every result is
/// byte-identical at any thread count.
[[nodiscard]] JobSuiteResult run_job_suite(const JobConfig& base,
                                           const JobGrid& grid,
                                           std::size_t jobs_threads = 1);

}  // namespace s2c2::harness
