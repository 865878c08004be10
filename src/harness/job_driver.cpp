#include "src/harness/job_driver.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "src/apps/logistic_regression.h"
#include "src/apps/pagerank.h"
#include "src/apps/svm.h"
#include "src/coding/decode_context.h"
#include "src/core/engine_factory.h"
#include "src/telemetry/health_monitor.h"
#include "src/util/hash.h"
#include "src/util/require.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/workload/datasets.h"
#include "src/workload/graphs.h"

namespace s2c2::harness {

namespace {

using util::fnv1a;
using util::hex64;
using util::mix64;

/// Axis id of a job strategy — the wire format job fingerprints are
/// built from. {s2c2, mds, replication, overdecomp} = 0..3 is the legacy
/// PR 5 mapping (it predates the unified StrategyKind) and is pinned by
/// the golden fingerprints in tests/fingerprint_guard_test.cpp; the
/// later kinds took the next free ids. Never renumber.
std::uint64_t strategy_axis_id(core::StrategyKind s) {
  switch (s) {
    case core::StrategyKind::kS2C2: return 0;
    case core::StrategyKind::kMds: return 1;
    case core::StrategyKind::kReplication: return 2;
    case core::StrategyKind::kOverDecomp: return 3;
    case core::StrategyKind::kLt: return 4;
    case core::StrategyKind::kAgc: return 5;
    default:
      throw std::invalid_argument(
          std::string("strategy is not a job-driver axis: ") +
          core::strategy_name(s));
  }
}

// Functional operator sizes. Larger than the scenario matrix's functional
// cells on purpose: the paper's regime has per-round worker compute well
// above the master's decode cost (at 21000x2000, compute is ~20x decode),
// and reproducing that *ratio* with real, verifiable decodes needs
// operators wide enough that compute per worker — ~2·(rows/k)·cols flops —
// dominates the ~2·k·rows decode solves. At these shapes compute is 4-10x
// decode; at the matrix's 240x36 it would be the decode that dominates and
// every job-level ordering would invert away from the paper's.
constexpr std::size_t kGdSamples = 960;
constexpr std::size_t kGdFeatures = 480;
constexpr std::size_t kPageRankNodes = 600;
constexpr std::size_t kFilterNodes = 480;

/// Contraction factor of the graph-filter fixed point v <- gamma·L·v
/// (gamma = kFilterAlpha / ||L||_inf), guaranteeing geometric convergence.
constexpr double kFilterAlpha = 0.4;

/// Master-side constants of the app updates: GD step sizes and
/// regularizers, PageRank damping.
constexpr double kLogRegLearningRate = 0.5;
constexpr double kLogRegL2 = 1e-4;
constexpr double kSvmLearningRate = 0.2;
constexpr double kSvmLambda = 1e-3;
constexpr double kPageRankDamping = 0.85;

/// One straggler-protected matrix-vector product under a strategy: the
/// latency comes from a simulated engine round, the numeric product from
/// run_round's unified forwarding — decoded for the coded strategies,
/// exact direct multiply for the uncoded baselines (which compute the
/// true product by construction; only their *time* needs simulating).
/// One class for every strategy: the polymorphic StrategyEngine replaced
/// the per-strategy channel hierarchy this file carried before PR 5.
class StrategyChannel {
 public:
  StrategyChannel(std::unique_ptr<core::StrategyEngine> engine,
                  ColumnPredictor bundle)
      : bundle_(std::move(bundle)), engine_(std::move(engine)) {}

  sim::RoundStats multiply(std::span<const double> x, linalg::Vector& y) {
    core::RoundResult res = engine_->run_round(x);
    // Every strategy forwards the product in functional mode; a missing
    // one would mean the convergence loop silently went latency-only
    // (the PR 3 run_rounds regression, now guarded for all strategies).
    S2C2_CHECK(res.y.has_value(), "functional round must produce a product");
    y = std::move(*res.y);
    return res.stats;
  }

  [[nodiscard]] const sim::Accounting& accounting() const {
    return engine_->accounting();
  }
  [[nodiscard]] double misprediction_rate() const {
    return engine_->misprediction_rate();
  }
  [[nodiscard]] coding::DecodeContextStats decode_stats() const {
    return engine_->decode_stats();
  }
  /// Null for strategies without a health monitor (uncoded baselines).
  [[nodiscard]] const telemetry::HealthMonitor* health() const {
    return engine_->health_monitor();
  }

 private:
  ColumnPredictor bundle_;  // must outlive engine_ (LSTM adapter refs it)
  std::unique_ptr<core::StrategyEngine> engine_;
};

/// Builds one operator's channel under the job's strategy through
/// core::make_engine. Dense operators pass `dense`; sparse pass `sparse`
/// (exactly one non-null). The operator must outlive the returned
/// channel: engines borrow it (the uncoded baselines' direct-multiply
/// closures hold a pointer into it, not a copy).
std::unique_ptr<StrategyChannel> make_channel(
    const JobConfig& config, const core::ClusterSpec& spec,
    const linalg::Matrix* dense, const linalg::CsrMatrix* sparse,
    std::uint64_t placement_salt) {
  const ScenarioConfig sc = config.scenario();
  const WorkloadKind column = job_trace_column(config.app);

  core::EngineParams params;
  params.cluster = spec;
  params.dense = dense;
  params.sparse = sparse;
  params.k = config.effective_k();
  params.chunks_per_partition = config.chunks_per_partition;
  params.inner_jobs = config.inner_jobs;
  params.replication.placement_seed = mix64(placement_salt ^ 0x91ace3e9ull);
  // LT symbol-graph seed, salted like replication placement (only the lt
  // factory reads it) — every shard of a job sees the identical code.
  params.code_seed = mix64(placement_salt ^ 0x17c0deull);
  // Health-informed prediction only on the robustness traces: the scale
  // hook changes allocations, and the default-grid traces are pinned by
  // the JobSuite golden fingerprint.
  params.health_informed = trace_profile_is_robustness(config.trace);

  ColumnPredictor bundle;
  if (core::strategy_uses_predictions(config.strategy)) {
    bundle = make_column_predictor(sc, column, config.trace);
    params.oracle_speeds = bundle.oracle();
    params.predictor = std::move(bundle.predictor);
  } else if (core::strategy_is_coded(config.strategy)) {
    // The prediction-blind coded strategies (mds, lt) allocate everyone a
    // full partition; speeds only feed their misprediction telemetry, so
    // they read the oracle.
    params.oracle_speeds = true;
  }
  return std::make_unique<StrategyChannel>(
      core::make_engine(config.strategy, std::move(params)),
      std::move(bundle));
}

/// Per-round bookkeeping accumulated by the app loops.
struct RoundLog {
  std::size_t rounds = 0;
  std::size_t timeouts = 0;
  double completion_time = 0.0;
  std::size_t reassigned_chunks = 0;
  std::size_t data_moves = 0;
  std::size_t byzantine_detected = 0;
  std::size_t corrupted_chunks = 0;

  void record(const sim::RoundStats& stats) {
    ++rounds;
    timeouts += stats.timeout_fired ? 1 : 0;
    completion_time += stats.latency();
    reassigned_chunks += stats.reassigned_chunks;
    data_moves += stats.data_moves;
    byzantine_detected += stats.byzantine_detected;
    corrupted_chunks += stats.corrupted_chunks;
  }

  /// Transcribes the log (and the channels' accounting) into the result —
  /// the one place every app loop finishes through.
  void finish(JobResult& result,
              std::span<const StrategyChannel* const> channels) const;
};

/// Sums the channels' per-worker accounts into the job-level totals.
void aggregate_accounting(
    JobResult& result, std::span<const StrategyChannel* const> channels);

void RoundLog::finish(JobResult& result,
                      std::span<const StrategyChannel* const> channels) const {
  result.rounds = rounds;
  result.completion_time = completion_time;
  result.timeout_rate =
      rounds > 0 ? static_cast<double>(timeouts) / static_cast<double>(rounds)
                 : 0.0;
  result.reassigned_chunks = reassigned_chunks;
  result.data_moves = data_moves;
  result.byzantine_detected = byzantine_detected;
  result.corrupted_chunks = corrupted_chunks;
  // End-of-job health snapshot. A GD job's forward and backward channels
  // monitor the same fleet, so take the pessimistic view across channels.
  bool any_monitor = false;
  double min_ttf = std::numeric_limits<double>::infinity();
  for (const StrategyChannel* ch : channels) {
    const telemetry::HealthMonitor* hm = ch->health();
    if (hm == nullptr) continue;
    any_monitor = true;
    result.degrading_workers =
        std::max(result.degrading_workers, hm->degrading_count());
    min_ttf = std::min(min_ttf, hm->min_time_to_failure());
  }
  result.health_min_ttf = any_monitor ? min_ttf : 0.0;
  aggregate_accounting(result, channels);
}

void aggregate_accounting(
    JobResult& result, std::span<const StrategyChannel* const> channels) {
  std::size_t workers = 0;
  for (const StrategyChannel* ch : channels) {
    workers = std::max(workers, ch->accounting().num_workers());
  }
  double fraction_sum = 0.0;
  for (std::size_t w = 0; w < workers; ++w) {
    double useful = 0.0, wasted = 0.0;
    for (const StrategyChannel* ch : channels) {
      const sim::WorkerAccount& acct = ch->accounting().worker(w);
      useful += acct.useful_work;
      wasted += acct.wasted_work;
      result.total_busy += acct.busy_time;
    }
    result.total_useful += useful;
    result.total_wasted += wasted;
    const double total = useful + wasted;
    fraction_sum += total > 0.0 ? wasted / total : 0.0;
  }
  result.mean_wasted_fraction =
      workers > 0 ? fraction_sum / static_cast<double>(workers) : 0.0;
  double mispred = 0.0;
  for (const StrategyChannel* ch : channels) {
    mispred += ch->misprediction_rate();
    const coding::DecodeContextStats ds = ch->decode_stats();
    result.decode_sets += ds.entries;
    result.decode_cache_hits += ds.hits;
  }
  result.misprediction_rate =
      channels.empty() ? 0.0 : mispred / static_cast<double>(channels.size());
}

/// Operator seed for the job's (app, trace) column — deliberately
/// independent of the strategy, so every strategy trains/iterates on the
/// same dataset (the trace-salt rule, applied to operators).
std::uint64_t operator_salt(const JobConfig& config) {
  return mix64(trace_salt(config.seed, job_trace_column(config.app),
                          config.trace) ^
               0x0bd0a70ull);
}

/// Relative-change convergence test for the objective-driven apps.
bool objective_converged(double prev, double cur, double tolerance) {
  return std::abs(prev - cur) <= tolerance * std::max(1.0, std::abs(cur));
}

/// Flops of one round's main product — the per-app analogue of the matrix
/// cell shape the trace generator is calibrated against.
double app_round_flops(JobApp app) {
  switch (app) {
    case JobApp::kLogReg:
    case JobApp::kSvm:
      return core::matvec_flops(kGdSamples, kGdFeatures);
    case JobApp::kPageRank:
      return core::matvec_flops(kPageRankNodes, kPageRankNodes);
    case JobApp::kGraphFilter:
      return core::matvec_flops(kFilterNodes, kFilterNodes);
  }
  return core::matvec_flops(kGdSamples, kGdFeatures);
}

/// The job's cluster: the shared per-(app, trace) traces from the matrix
/// harness, with the fleet recalibrated to the driver's operator scale.
/// Two corrections on top of make_cluster's functional fleet:
///  * worker_flops scales with the operator so one job round still spans
///    roughly one trace sample period — the paper measures one speed
///    sample per iteration, and without this the driver's wider operators
///    would smear dozens of regime switches into every round;
///  * master_flops gets a 6x boost so the decode:compute ratio lands near
///    the paper's (~5% at 21000x2000); at the driver's functional scale an
///    equal-speed master would spend ~30% of every round decoding and the
///    decode term, not the straggler schedule, would decide every
///    cross-strategy comparison.
core::ClusterSpec job_cluster(const JobConfig& config) {
  const ScenarioConfig sc = config.scenario();
  core::ClusterSpec spec =
      make_cluster(config.trace, sc,
                   trace_salt(config.seed, job_trace_column(config.app),
                              config.trace));
  const WorkloadShape matrix_shape =
      workload_shape(WorkloadKind::kLogisticRegression, sc);
  const double matrix_flops =
      core::matvec_flops(matrix_shape.rows, matrix_shape.cols);
  const double op_ratio = app_round_flops(config.app) / matrix_flops;
  spec.worker_flops *= op_ratio;
  spec.master_flops = 6.0 * spec.worker_flops;
  return spec;
}

void run_gd_job(const JobConfig& config, const core::ClusterSpec& spec,
                JobResult& result) {
  util::Rng op_rng(operator_salt(config));
  const bool svm = config.app == JobApp::kSvm;
  // SVM gets overlapping classes: on a margin-separable blob the hinge
  // objective collapses in 2-3 subgradient steps and the "job" would be
  // too short to measure; logreg's losses decay smoothly either way.
  const workload::Dataset data =
      svm ? workload::make_classification(kGdSamples, kGdFeatures, op_rng,
                                          1.5, 1.2)
          : workload::make_classification(kGdSamples, kGdFeatures, op_rng,
                                          3.0, 0.8);
  const double lr = svm ? kSvmLearningRate : kLogRegLearningRate;
  const double reg = svm ? kSvmLambda : kLogRegL2;

  const linalg::Matrix xt = data.x.transposed();
  const auto fwd = make_channel(config, spec, &data.x, nullptr,
                                operator_salt(config) ^ 0x1ull);
  const auto bwd = make_channel(config, spec, &xt, nullptr,
                                operator_salt(config) ^ 0x2ull);

  linalg::Vector w(kGdFeatures, 0.0);
  linalg::Vector w_ref = w;
  RoundLog log;
  linalg::Vector margins, grad;
  for (std::size_t it = 0; it < config.max_iterations; ++it) {
    log.record(fwd->multiply(w, margins));
    const linalg::Vector resid =
        svm ? apps::hinge_residual(data, margins)
            : apps::logistic_residual(data, margins);
    log.record(bwd->multiply(resid, grad));
    linalg::axpy(reg, w, grad);
    linalg::axpy(-lr, grad, w);

    // Uncoded reference trajectory in lockstep.
    const linalg::Vector g_ref =
        svm ? apps::hinge_subgradient(data, w_ref, reg)
            : apps::logistic_gradient(data, w_ref, reg);
    linalg::axpy(-lr, g_ref, w_ref);
    result.solution_error =
        std::max(result.solution_error, linalg::max_abs_diff(w, w_ref));

    const double obj = svm ? apps::hinge_objective(data, w, reg)
                           : apps::logistic_loss(data, w, reg);
    result.convergence.push_back(obj);
    ++result.iterations;
    if (result.convergence.size() > 1 &&
        objective_converged(result.convergence[result.convergence.size() - 2],
                            obj, config.tolerance)) {
      result.converged = true;
      break;
    }
  }
  const StrategyChannel* chans[] = {fwd.get(), bwd.get()};
  log.finish(result, chans);
}

void run_pagerank_job(const JobConfig& config, const core::ClusterSpec& spec,
                      JobResult& result) {
  util::Rng op_rng(operator_salt(config));
  const linalg::CsrMatrix adj =
      workload::power_law_digraph(kPageRankNodes, 5, op_rng);
  const linalg::CsrMatrix link = workload::link_matrix(adj);
  const std::vector<double> outdeg = apps::out_degrees(adj);

  const auto ch =
      make_channel(config, spec, nullptr, &link, operator_salt(config));

  const std::size_t nodes = adj.rows();
  linalg::Vector ranks(nodes, 1.0 / static_cast<double>(nodes));
  linalg::Vector ranks_ref = ranks;
  linalg::Vector t, next(nodes), t_ref(nodes), next_ref(nodes);
  RoundLog log;
  for (std::size_t it = 0; it < config.max_iterations; ++it) {
    log.record(ch->multiply(ranks, t));
    apps::pagerank_update(t, ranks, outdeg, kPageRankDamping, next);

    link.matvec_into(ranks_ref, t_ref);
    apps::pagerank_update(t_ref, ranks_ref, outdeg, kPageRankDamping,
                          next_ref);
    ranks_ref = next_ref;

    double delta = 0.0;
    for (std::size_t i = 0; i < nodes; ++i) {
      delta += std::abs(next[i] - ranks[i]);
    }
    ranks = next;
    result.solution_error =
        std::max(result.solution_error, linalg::max_abs_diff(ranks, ranks_ref));
    result.convergence.push_back(delta);
    ++result.iterations;
    if (delta <= config.tolerance) {
      result.converged = true;
      break;
    }
  }
  const StrategyChannel* chans[] = {ch.get()};
  log.finish(result, chans);
}

void run_filter_job(const JobConfig& config, const core::ClusterSpec& spec,
                    JobResult& result) {
  util::Rng op_rng(operator_salt(config));
  const linalg::CsrMatrix adj =
      workload::random_undirected(kFilterNodes, 0.03, op_rng);
  const linalg::CsrMatrix lap = workload::combinatorial_laplacian(adj);
  linalg::Vector signal(kFilterNodes);
  for (auto& v : signal) v = op_rng.normal();

  // gamma scales the fixed-point map v <- gamma·L·v to contraction factor
  // kFilterAlpha (||L||_inf-normalized), so the diffusion series
  // sum_h (gamma·L)^h · x converges geometrically to tolerance.
  double row_sum_max = 1.0;
  const auto rp = lap.row_ptr();
  const auto vals = lap.values();
  for (std::size_t r = 0; r < lap.rows(); ++r) {
    double s = 0.0;
    for (std::size_t p = rp[r]; p < rp[r + 1]; ++p) s += std::abs(vals[p]);
    row_sum_max = std::max(row_sum_max, s);
  }
  const double gamma = kFilterAlpha / row_sum_max;

  const auto ch =
      make_channel(config, spec, nullptr, &lap, operator_salt(config));

  linalg::Vector power = signal, power_ref = signal;
  linalg::Vector filtered = signal, filtered_ref = signal;
  linalg::Vector y;
  RoundLog log;
  for (std::size_t it = 0; it < config.max_iterations; ++it) {
    log.record(ch->multiply(power, y));
    for (std::size_t i = 0; i < y.size(); ++i) power[i] = gamma * y[i];
    for (std::size_t i = 0; i < power.size(); ++i) filtered[i] += power[i];

    const linalg::Vector y_ref = lap.matvec(power_ref);
    for (std::size_t i = 0; i < y_ref.size(); ++i) {
      power_ref[i] = gamma * y_ref[i];
      filtered_ref[i] += power_ref[i];
    }
    result.solution_error = std::max(
        result.solution_error, linalg::max_abs_diff(filtered, filtered_ref));

    double norm = 0.0;
    for (const double v : power) norm = std::max(norm, std::abs(v));
    result.convergence.push_back(norm);
    ++result.iterations;
    if (norm <= config.tolerance) {
      result.converged = true;
      break;
    }
  }
  const StrategyChannel* chans[] = {ch.get()};
  log.finish(result, chans);
}

}  // namespace

const char* job_app_name(JobApp a) {
  switch (a) {
    case JobApp::kLogReg: return "logreg";
    case JobApp::kSvm: return "svm";
    case JobApp::kPageRank: return "pagerank";
    case JobApp::kGraphFilter: return "graphfilter";
  }
  return "?";
}

std::vector<JobApp> all_job_apps() {
  return {JobApp::kLogReg, JobApp::kSvm, JobApp::kPageRank,
          JobApp::kGraphFilter};
}

std::vector<StrategyKind> all_job_strategies() {
  return {StrategyKind::kS2C2, StrategyKind::kMds, StrategyKind::kReplication,
          StrategyKind::kOverDecomp};
}

std::vector<StrategyKind> extended_job_strategies() {
  std::vector<StrategyKind> out = all_job_strategies();
  out.insert(out.end(), {StrategyKind::kLt, StrategyKind::kAgc});
  return out;
}

WorkloadKind job_trace_column(JobApp a) {
  switch (a) {
    case JobApp::kLogReg: return WorkloadKind::kLogisticRegression;
    case JobApp::kSvm: return WorkloadKind::kSvm;
    case JobApp::kPageRank: return WorkloadKind::kPageRank;
    case JobApp::kGraphFilter: return WorkloadKind::kHessian;
  }
  return WorkloadKind::kLogisticRegression;
}

ScenarioConfig JobConfig::scenario() const {
  ScenarioConfig sc;
  sc.workers = workers;
  sc.k = k;
  sc.stragglers = stragglers;
  sc.chunks_per_partition = chunks_per_partition;
  // Two coded rounds per GD iteration: sizes the cloud-trace horizon so
  // regimes keep drifting for the whole job instead of flatlining early.
  sc.rounds = 2 * max_iterations;
  sc.seed = seed;
  sc.predictor = predictor;
  sc.functional = true;
  sc.inner_jobs = inner_jobs;
  return sc;
}

std::string JobResult::fingerprint() const {
  std::uint64_t h = util::kFnvOffset;
  h = fnv1a(h, static_cast<std::uint64_t>(app));
  h = fnv1a(h, strategy_axis_id(strategy));
  h = fnv1a(h, static_cast<std::uint64_t>(trace));
  h = fnv1a(h, static_cast<std::uint64_t>(workers));
  h = fnv1a(h, static_cast<std::uint64_t>(predictor));
  h = fnv1a(h, static_cast<std::uint64_t>(failed ? 1 : 0));
  h = fnv1a(h, error);
  h = fnv1a(h, static_cast<std::uint64_t>(iterations));
  h = fnv1a(h, static_cast<std::uint64_t>(converged ? 1 : 0));
  h = fnv1a(h, static_cast<std::uint64_t>(rounds));
  h = fnv1a(h, completion_time);
  h = fnv1a(h, total_useful);
  h = fnv1a(h, total_wasted);
  h = fnv1a(h, total_busy);
  h = fnv1a(h, mean_wasted_fraction);
  h = fnv1a(h, timeout_rate);
  h = fnv1a(h, misprediction_rate);
  h = fnv1a(h, static_cast<std::uint64_t>(reassigned_chunks));
  h = fnv1a(h, static_cast<std::uint64_t>(data_moves));
  h = fnv1a(h, static_cast<std::uint64_t>(decode_sets));
  h = fnv1a(h, static_cast<std::uint64_t>(decode_cache_hits));
  // Robustness fields are hashed only on the robustness traces: the
  // JobSuite golden pins the default grid (controlled + volatile traces),
  // where these stay identically zero and must not perturb the hash.
  if (trace_profile_is_robustness(trace)) {
    h = fnv1a(h, static_cast<std::uint64_t>(byzantine_detected));
    h = fnv1a(h, static_cast<std::uint64_t>(corrupted_chunks));
    h = fnv1a(h, static_cast<std::uint64_t>(degrading_workers));
    h = fnv1a(h, health_min_ttf);
  }
  for (const double v : convergence) h = fnv1a(h, v);
  h = fnv1a(h, final_metric);
  h = fnv1a(h, solution_error);
  return hex64(h);
}

namespace {

/// A JobResult carrying only the job's identity coordinates — the shared
/// starting point of both the success and the deterministic-failure path.
JobResult identity_result(const JobConfig& config) {
  JobResult result;
  result.app = config.app;
  result.strategy = config.strategy;
  result.trace = config.trace;
  result.workers = config.workers;
  result.predictor = core::strategy_uses_predictions(config.strategy)
                         ? config.predictor
                         : PredictorKind::kOracle;
  return result;
}

}  // namespace

JobResult run_job(const JobConfig& config) {
  if (config.workers < 2) {
    throw std::invalid_argument("job driver needs >= 2 workers");
  }
  // Checked here for every strategy: the uncoded baselines never read k,
  // and the coded ones would fail deep in encode.
  if (config.effective_k() > config.workers) {
    throw std::invalid_argument("job driver needs k <= workers (k = " +
                                std::to_string(config.effective_k()) +
                                ", workers = " +
                                std::to_string(config.workers) + ")");
  }
  // Validate the strategy axis up front: the unified StrategyKind makes
  // every kind type-legal here, but only the driver strategies (the
  // default four plus lt/agc) have job semantics — fail with the axis
  // error, not a deep engine REQUIRE.
  (void)strategy_axis_id(config.strategy);
  JobResult result = identity_result(config);

  // Traces are salted per (app, trace) column, NOT per strategy — all
  // strategies of a column face the same realized cluster.
  const core::ClusterSpec spec = job_cluster(config);
  try {
    switch (config.app) {
      case JobApp::kLogReg:
      case JobApp::kSvm:
        run_gd_job(config, spec, result);
        break;
      case JobApp::kPageRank:
        run_pagerank_job(config, spec, result);
        break;
      case JobApp::kGraphFilter:
        run_filter_job(config, spec, result);
        break;
    }
  } catch (const std::runtime_error& ex) {
    // Unrecoverable cluster failures are data, not crashes: the job
    // records the deterministic failure (partial progress discarded) and
    // the suite continues.
    result = identity_result(config);
    result.failed = true;
    result.error = ex.what();
    return result;
  }
  if (!result.convergence.empty()) {
    result.final_metric = result.convergence.back();
  }
  return result;
}

const JobResult* JobSuiteResult::find(JobApp a, StrategyKind s,
                                      TraceProfile t) const {
  for (const JobResult& job : jobs) {
    if (job.app == a && job.strategy == s && job.trace == t) return &job;
  }
  return nullptr;
}

std::string JobSuiteResult::fingerprint() const {
  std::uint64_t h = util::kFnvOffset;
  for (const JobResult& job : jobs) h = fnv1a(h, job.fingerprint());
  return hex64(h);
}

JobSuiteResult run_job_suite(const JobConfig& base, const JobGrid& grid,
                             std::size_t jobs_threads) {
  struct Coord {
    JobApp app;
    StrategyKind strategy;
    TraceProfile trace;
  };
  std::vector<Coord> coords;
  for (const JobApp a : grid.apps) {
    for (const StrategyKind s : grid.strategies) {
      for (const TraceProfile t : grid.traces) {
        coords.push_back({a, s, t});
      }
    }
  }
  JobSuiteResult out;
  out.base = base;
  out.jobs.resize(coords.size());
  // Each task owns one preassigned slot; run_job is pure in its config, so
  // the suite (and its fingerprint) is byte-identical at any thread count.
  util::parallel_for(coords.size(), jobs_threads, [&](std::size_t i) {
    JobConfig cfg = base;
    cfg.app = coords[i].app;
    cfg.strategy = coords[i].strategy;
    cfg.trace = coords[i].trace;
    out.jobs[i] = run_job(cfg);
  });
  return out;
}

}  // namespace s2c2::harness
