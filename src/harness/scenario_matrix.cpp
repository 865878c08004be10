#include "src/harness/scenario_matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/coding/poly_code.h"
#include "src/core/engine_factory.h"
#include "src/linalg/sparse.h"
#include "src/predict/arima.h"
#include "src/util/hash.h"
#include "src/util/memo.h"
#include "src/util/rng.h"
#include "src/workload/graphs.h"
#include "src/workload/trace_gen.h"

namespace s2c2::harness {

namespace {

using util::fnv1a;
using util::hex64;
using util::mix64;

/// Rounds `d` down to a multiple of `a` (polynomial codes need d % a == 0),
/// clamping up to `a` when d < a so degenerate shapes still yield one block.
std::size_t round_to_blocks(std::size_t d, std::size_t a) {
  return std::max<std::size_t>(a, d - d % a);
}

double worker_flops_for(const ScenarioConfig& config) {
  // Functional cells run real (tiny) operators; a proportionally slower
  // fleet keeps compute on the critical path, matching the cost-only shape.
  return config.functional ? 1e7 : 1e9;
}

/// Nominal per-worker round time of the logistic-regression cell — the
/// sample period for cloud traces, so regimes drift on the same timescale
/// as rounds (mirrors the paper's one-sample-per-iteration measurement).
double trace_sample_dt(const ScenarioConfig& config) {
  const WorkloadShape s = workload_shape(WorkloadKind::kLogisticRegression,
                                         config);
  const double flops = core::matvec_flops(s.rows, s.cols);
  return flops / (static_cast<double>(config.effective_k()) *
                  worker_flops_for(config));
}

struct RoundSummary {
  std::vector<double> latencies;
  std::size_t timeouts = 0;
  std::size_t byzantine_detected = 0;
  std::size_t corrupted_chunks = 0;
  std::size_t degrading_workers = 0;  // final round's flag count
};

/// Shared per-round bookkeeping: `run_round` executes one engine round and
/// returns its RoundStats (doing any cell-specific work, e.g. decode
/// verification, before returning). Keeping this in one place keeps every
/// engine's event log shaped identically.
template <typename RunRound>
RoundSummary run_rounds_loop(std::size_t rounds, RunRound&& run_round) {
  RoundSummary rs;
  for (std::size_t r = 0; r < rounds; ++r) {
    const sim::RoundStats stats = run_round();
    rs.latencies.push_back(stats.latency());
    rs.timeouts += stats.timeout_fired ? 1 : 0;
    rs.byzantine_detected += stats.byzantine_detected;
    rs.corrupted_chunks += stats.corrupted_chunks;
    rs.degrading_workers = stats.degrading_workers;
  }
  return rs;
}

void finish_cell(CellResult& cell, const RoundSummary& rs,
                 const sim::Accounting& acct) {
  cell.rounds = rs.latencies.size();
  cell.round_latencies = rs.latencies;
  for (const double l : rs.latencies) cell.total_latency += l;
  cell.mean_latency =
      cell.rounds > 0 ? cell.total_latency / static_cast<double>(cell.rounds)
                      : 0.0;
  cell.timeout_rate =
      cell.rounds > 0
          ? static_cast<double>(rs.timeouts) / static_cast<double>(cell.rounds)
          : 0.0;
  cell.total_useful = acct.total_useful();
  cell.total_wasted = acct.total_wasted();
  cell.mean_wasted_fraction = acct.mean_wasted_fraction();
  cell.byzantine_detected = rs.byzantine_detected;
  cell.corrupted_chunks = rs.corrupted_chunks;
  cell.degrading_workers = rs.degrading_workers;
}

/// Training seed for the learned predictors — per (seed, workload, profile)
/// column and independent of the engine, so every engine in a column
/// forecasts from an identically-trained model.
std::uint64_t predictor_train_salt(const ScenarioConfig& config,
                                   WorkloadKind w, TraceProfile t) {
  return mix64(trace_salt(config.seed, w, t) ^ 0x9ced1c70ull);
}

workload::CloudTraceConfig training_trace_config(TraceProfile t) {
  // Cloud columns train on their own regime; the controlled/failure
  // profiles have no generative model of their own, so their predictors
  // train on the volatile regime (the paper's hardest forecasting setting).
  return t == TraceProfile::kStableCloud ? workload::stable_cloud_config()
                                         : workload::volatile_cloud_config();
}

// Every engine and cluster size in a column trains from the same salt, so
// fitting is memoized on it (util::SharedMemo): training is a pure function
// of the salt and profile, which keeps cached and freshly-trained cells
// byte-identical, and independent columns train concurrently while
// same-column cells share one run. (Bounded: one entry per (seed, workload,
// profile) column touched by the process.)
predict::ArimaModel trained_arima(std::uint64_t salt, TraceProfile t) {
  static util::SharedMemo<std::uint64_t, predict::ArimaModel> memo;
  return memo.get(salt, [&] {
    util::Rng rng(salt);
    const auto corpus =
        workload::cloud_speed_corpus(8, 96, training_trace_config(t), rng);
    return predict::fit_arima11(corpus, 0);
  });
}

std::shared_ptr<const predict::Lstm> trained_lstm(std::uint64_t salt,
                                                  TraceProfile t) {
  static util::SharedMemo<std::uint64_t, std::shared_ptr<const predict::Lstm>>
      memo;
  return memo.get(salt, [&]() -> std::shared_ptr<const predict::Lstm> {
    // Deliberately small (4 hidden units, short corpus, 12 epochs): the
    // model must fit a per-cell time budget under the parallel runner.
    util::Rng rng(salt);
    const auto corpus =
        workload::cloud_speed_corpus(6, 64, training_trace_config(t), rng);
    auto lstm = std::make_shared<predict::Lstm>(1, 4, salt ^ 0x15ull);
    predict::Lstm::TrainConfig tc;
    tc.epochs = 12;
    tc.bptt_window = 24;
    lstm->train(corpus, tc);
    return lstm;
  });
}

}  // namespace

void require_k_within_workers(const char* entry, std::size_t workers,
                              std::size_t k) {
  const std::size_t effective = resolve_k(workers, k);
  if (effective > workers) {
    throw std::invalid_argument(std::string(entry) +
                                " needs k <= workers (k = " +
                                std::to_string(effective) + ", workers = " +
                                std::to_string(workers) + ")");
  }
}

std::uint64_t engine_axis_id(StrategyKind e) {
  // Wire format: cell seeds and cell fingerprints hash this id, so the
  // mapping is append-only. 0..3 are the legacy PR 5 engine axis (it
  // predates the unified StrategyKind, whose enum values must stay free
  // to grow) and are pinned by tests/fingerprint_guard_test.cpp; the
  // later kinds took the next free ids. Never renumber.
  switch (e) {
    case StrategyKind::kS2C2: return 0;
    case StrategyKind::kReplication: return 1;
    case StrategyKind::kPoly: return 2;
    case StrategyKind::kOverDecomp: return 3;
    case StrategyKind::kLt: return 4;
    case StrategyKind::kAgc: return 5;
    case StrategyKind::kS2C2Basic: return 6;
    case StrategyKind::kMds: return 7;
    case StrategyKind::kPolyConventional: return 8;
  }
  throw std::invalid_argument(
      std::string("strategy is not a scenario-matrix engine axis: ") +
      core::strategy_name(e));
}

ColumnPredictor make_column_predictor(const ScenarioConfig& config,
                                      WorkloadKind w, TraceProfile t) {
  ColumnPredictor b;
  const std::size_t n = config.workers;
  switch (config.predictor) {
    case PredictorKind::kOracle:
      return b;
    case PredictorKind::kLastValue:
      b.predictor = std::make_unique<predict::LastValuePredictor>(n);
      break;
    case PredictorKind::kArima:
      b.predictor = std::make_unique<predict::ArimaPredictor>(
          n, trained_arima(predictor_train_salt(config, w, t), t));
      break;
    case PredictorKind::kLstm: {
      b.lstm = trained_lstm(predictor_train_salt(config, w, t), t);
      b.predictor = std::make_unique<predict::LstmPredictor>(n, *b.lstm);
      break;
    }
  }
  return b;
}

const char* workload_name(WorkloadKind w) {
  switch (w) {
    case WorkloadKind::kLogisticRegression: return "logreg";
    case WorkloadKind::kPageRank: return "pagerank";
    case WorkloadKind::kSvm: return "svm";
    case WorkloadKind::kHessian: return "hessian";
  }
  return "?";
}

const char* trace_profile_name(TraceProfile t) {
  switch (t) {
    case TraceProfile::kControlledStragglers: return "controlled";
    case TraceProfile::kStableCloud: return "stable";
    case TraceProfile::kVolatileCloud: return "volatile";
    case TraceProfile::kFailureInjection: return "failure";
    case TraceProfile::kFailSlow: return "fail-slow";
    case TraceProfile::kBurstyColocation: return "bursty";
    case TraceProfile::kDiurnal: return "diurnal";
    case TraceProfile::kByzantine: return "byzantine";
  }
  return "?";
}

const char* predictor_name(PredictorKind p) {
  switch (p) {
    case PredictorKind::kOracle: return "oracle";
    case PredictorKind::kLastValue: return "last-value";
    case PredictorKind::kArima: return "arima";
    case PredictorKind::kLstm: return "lstm";
  }
  return "?";
}

std::vector<StrategyKind> all_engines() {
  return {StrategyKind::kS2C2, StrategyKind::kReplication, StrategyKind::kPoly,
          StrategyKind::kOverDecomp};
}

std::vector<StrategyKind> extended_engines() {
  // Legacy four in their wire order, then the later kinds in enum
  // order. Every kind here must be runnable through run_cell.
  std::vector<StrategyKind> out = all_engines();
  out.insert(out.end(),
             {StrategyKind::kS2C2Basic, StrategyKind::kMds,
              StrategyKind::kPolyConventional, StrategyKind::kLt,
              StrategyKind::kAgc});
  return out;
}

std::vector<WorkloadKind> all_workloads() {
  return {WorkloadKind::kLogisticRegression, WorkloadKind::kPageRank,
          WorkloadKind::kSvm, WorkloadKind::kHessian};
}

std::vector<TraceProfile> all_trace_profiles() {
  return {TraceProfile::kControlledStragglers, TraceProfile::kStableCloud,
          TraceProfile::kVolatileCloud, TraceProfile::kFailureInjection};
}

std::vector<TraceProfile> robustness_trace_profiles() {
  return {TraceProfile::kFailSlow, TraceProfile::kBurstyColocation,
          TraceProfile::kDiurnal, TraceProfile::kByzantine};
}

std::vector<TraceProfile> extended_trace_profiles() {
  std::vector<TraceProfile> out = all_trace_profiles();
  const std::vector<TraceProfile> extra = robustness_trace_profiles();
  out.insert(out.end(), extra.begin(), extra.end());
  return out;
}

bool trace_profile_is_robustness(TraceProfile t) {
  return static_cast<int>(t) > static_cast<int>(TraceProfile::kFailureInjection);
}

std::vector<PredictorKind> all_predictors() {
  return {PredictorKind::kOracle, PredictorKind::kLastValue,
          PredictorKind::kArima, PredictorKind::kLstm};
}

WorkloadShape workload_shape(WorkloadKind w, const ScenarioConfig& config) {
  WorkloadShape s;
  // Largest block split with a² decode quorum the fleet can field.
  s.a_blocks = config.workers >= 10 ? 3 : (config.workers >= 5 ? 2 : 1);
  if (config.functional) {
    switch (w) {
      case WorkloadKind::kLogisticRegression: s.rows = 240; s.cols = 36; break;
      case WorkloadKind::kPageRank:
        s.rows = 216; s.cols = 216; s.sparse = true; break;
      case WorkloadKind::kSvm: s.rows = 180; s.cols = 48; break;
      case WorkloadKind::kHessian: s.rows = 72; s.cols = 24; break;
    }
    return s;
  }
  const double scale = std::max(config.scale, 1e-3);
  auto scaled = [&](std::size_t rows) {
    return std::max<std::size_t>(
        config.workers, static_cast<std::size_t>(
                            std::llround(static_cast<double>(rows) * scale)));
  };
  switch (w) {
    // The paper's duplicated-gisette LR/SVM shape (§6.5/§7.2).
    case WorkloadKind::kLogisticRegression:
      s.rows = scaled(21000); s.cols = 2000; break;
    // Square link matrix (Toronto web-graph stand-in, §6.3) — scaling must
    // keep rows == cols or the cell stops modelling power iteration.
    case WorkloadKind::kPageRank:
      s.rows = scaled(12000); s.cols = s.rows; s.sparse = true; break;
    case WorkloadKind::kSvm: s.rows = scaled(21000); s.cols = 2000; break;
    // A is N x d; the poly engine computes the d x d Hessian from it.
    case WorkloadKind::kHessian: s.rows = scaled(9000); s.cols = 900; break;
  }
  return s;
}

std::uint64_t cell_seed(std::uint64_t seed, StrategyKind e, WorkloadKind w,
                        TraceProfile t) {
  std::uint64_t h = mix64(seed);
  h = mix64(h ^ (engine_axis_id(e) + 1));
  h = mix64(h ^ ((static_cast<std::uint64_t>(w) + 1) << 8));
  h = mix64(h ^ ((static_cast<std::uint64_t>(t) + 1) << 16));
  return h;
}

std::uint64_t trace_salt(std::uint64_t seed, WorkloadKind w, TraceProfile t) {
  std::uint64_t h = mix64(seed ^ 0x7ace0c01u);
  h = mix64(h ^ ((static_cast<std::uint64_t>(w) + 1) << 8));
  h = mix64(h ^ ((static_cast<std::uint64_t>(t) + 1) << 16));
  return h;
}

std::vector<sim::SpeedTrace> make_traces(TraceProfile profile,
                                         const ScenarioConfig& config,
                                         std::uint64_t salt) {
  util::Rng rng(mix64(salt ^ 0x7ace5eedull));
  switch (profile) {
    case TraceProfile::kControlledStragglers:
      return workload::controlled_cluster_traces(config.workers,
                                                 config.stragglers, 0.1, rng);
    case TraceProfile::kStableCloud:
    case TraceProfile::kVolatileCloud: {
      const auto cfg = profile == TraceProfile::kStableCloud
                           ? workload::stable_cloud_config()
                           : workload::volatile_cloud_config();
      const std::size_t samples = std::max<std::size_t>(64, 4 * config.rounds);
      return workload::traces_from_series(
          workload::cloud_speed_corpus(config.workers, samples, cfg, rng),
          trace_sample_dt(config));
    }
    case TraceProfile::kFailureInjection: {
      // Workers dying mid-round: the last `dead` workers drop to speed 0 at
      // staggered times inside the first few rounds, so the engines' §4.3
      // timeout/reassignment (and the baselines' failure handling) runs
      // against responses that never arrive (SpeedTrace::kNever completion).
      // Deaths are capped at n - k: the decode quorum must survive.
      const std::size_t n = config.workers;
      const std::size_t k = config.effective_k();
      const std::size_t dead =
          std::min(n - std::min(k, n),
                   std::max<std::size_t>(1, config.stragglers));
      const double dt = trace_sample_dt(config);
      std::vector<sim::SpeedTrace> traces;
      traces.reserve(n);
      for (std::size_t w = 0; w + dead < n; ++w) {
        traces.push_back(
            sim::SpeedTrace::constant(rng.uniform(0.85, 1.0)));
      }
      for (std::size_t i = 0; i < dead; ++i) {
        const double speed = rng.uniform(0.85, 1.0);
        const sim::Time t_death =
            dt * (0.4 + 1.3 * static_cast<double>(i) + rng.uniform(0.0, 0.3));
        traces.push_back(sim::SpeedTrace::step(t_death, speed, 0.0));
      }
      return traces;
    }
    case TraceProfile::kFailSlow: {
      // Monotone degradation toward a floor past a random onset — the
      // signature the health monitor's drift baselines exist to catch.
      const std::size_t samples = std::max<std::size_t>(64, 4 * config.rounds);
      return workload::traces_from_series(
          workload::fail_slow_corpus(config.workers, samples,
                                     workload::FailSlowConfig{}, rng),
          trace_sample_dt(config));
    }
    case TraceProfile::kBurstyColocation:
    case TraceProfile::kDiurnal: {
      const auto cfg = profile == TraceProfile::kBurstyColocation
                           ? workload::bursty_colocation_config()
                           : workload::diurnal_config();
      const std::size_t samples = std::max<std::size_t>(64, 4 * config.rounds);
      return workload::traces_from_series(
          workload::cloud_speed_corpus(config.workers, samples, cfg, rng),
          trace_sample_dt(config));
    }
    case TraceProfile::kByzantine: {
      // Corruption is the story, so speeds stay tame: the stable-cloud
      // generator on the byzantine column's own salt stream.
      const std::size_t samples = std::max<std::size_t>(64, 4 * config.rounds);
      return workload::traces_from_series(
          workload::cloud_speed_corpus(config.workers, samples,
                                       workload::stable_cloud_config(), rng),
          trace_sample_dt(config));
    }
  }
  throw std::invalid_argument("unknown trace profile");
}

core::ClusterSpec make_cluster(TraceProfile profile,
                               const ScenarioConfig& config,
                               std::uint64_t salt) {
  core::ClusterSpec spec;
  spec.traces = make_traces(profile, config, salt);
  spec.worker_flops = worker_flops_for(config);
  spec.master_flops = spec.worker_flops;
  if (profile == TraceProfile::kControlledStragglers) {
    spec.net.bytes_per_s = 7e9;  // the paper's FDR InfiniBand cluster
  }
  if (profile == TraceProfile::kByzantine) {
    // The last e workers corrupt their products every round, with e capped
    // at the n - k - 1 identification budget (docs/DESIGN.md §7) so a
    // coded cell always completes with the correct decoded product.
    const std::size_t n = config.workers;
    const std::size_t k = config.effective_k();
    const std::size_t budget = n > k + 1 ? n - k - 1 : 0;
    const std::size_t e =
        std::min(budget, std::max<std::size_t>(1, n / 8));
    for (std::size_t i = 0; i < e; ++i) {
      spec.byzantine.corrupt_workers.push_back(n - 1 - i);
    }
    spec.byzantine.seed = mix64(salt ^ 0xb72a27ull);
  }
  return spec;
}

std::string CellResult::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a(h, engine_axis_id(engine));
  h = fnv1a(h, static_cast<std::uint64_t>(workload));
  h = fnv1a(h, static_cast<std::uint64_t>(trace));
  h = fnv1a(h, static_cast<std::uint64_t>(workers));
  h = fnv1a(h, static_cast<std::uint64_t>(predictor));
  h = fnv1a(h, static_cast<std::uint64_t>(failed ? 1 : 0));
  for (const char c : error) h = fnv1a(h, static_cast<std::uint64_t>(c));
  h = fnv1a(h, static_cast<std::uint64_t>(rounds));
  for (const double l : round_latencies) h = fnv1a(h, l);
  h = fnv1a(h, total_useful);
  h = fnv1a(h, total_wasted);
  h = fnv1a(h, max_decode_error);
  if (trace_profile_is_robustness(trace)) {
    // Only the robustness profiles hash their telemetry — adding fields to
    // the original profiles' digests would invalidate the PR 5 goldens.
    h = fnv1a(h, static_cast<std::uint64_t>(byzantine_detected));
    h = fnv1a(h, static_cast<std::uint64_t>(corrupted_chunks));
    h = fnv1a(h, static_cast<std::uint64_t>(degrading_workers));
  }
  return hex64(h);
}

const CellResult* MatrixResult::find(StrategyKind e, WorkloadKind w,
                                     TraceProfile t) const {
  for (const auto& cell : cells) {
    if (cell.engine == e && cell.workload == w && cell.trace == t) {
      return &cell;
    }
  }
  return nullptr;
}

const CellResult* MatrixResult::find(StrategyKind e, WorkloadKind w,
                                     TraceProfile t, std::size_t workers,
                                     PredictorKind p) const {
  for (const auto& cell : cells) {
    if (cell.engine == e && cell.workload == w && cell.trace == t &&
        cell.workers == workers && cell.predictor == p) {
      return &cell;
    }
  }
  return nullptr;
}

std::string MatrixResult::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& cell : cells) {
    for (const char c : cell.fingerprint()) {
      h = fnv1a(h, static_cast<std::uint64_t>(c));
    }
  }
  return hex64(h);
}

namespace {

/// Runs the cell's rounds with optional decode verification against a
/// vector or Hessian truth (functional coded cells), then books the
/// summary. Verification is generic over the unified RoundResult: a cell
/// whose engine should decode but returns no product records kNever.
void run_cell_rounds(const ScenarioConfig& config,
                     core::StrategyEngine& engine, CellResult& cell,
                     std::span<const double> x, const linalg::Vector* truth_y,
                     const linalg::Matrix* truth_h) {
  RoundSummary rs;
  if (truth_y != nullptr || truth_h != nullptr) {
    cell.decode_checked = true;
    rs = run_rounds_loop(config.rounds, [&] {
      const core::RoundResult res = engine.run_round(x);
      if (truth_y != nullptr && res.y.has_value()) {
        cell.max_decode_error = std::max(
            cell.max_decode_error, linalg::max_abs_diff(*res.y, *truth_y));
      } else if (truth_h != nullptr && res.hessian.has_value()) {
        cell.max_decode_error = std::max(cell.max_decode_error,
                                         res.hessian->max_abs_diff(*truth_h));
      } else {
        cell.max_decode_error = sim::SpeedTrace::kNever;
      }
      return res.stats;
    });
  } else {
    rs = run_rounds_loop(config.rounds,
                         [&] { return engine.run_round().stats; });
  }
  finish_cell(cell, rs, engine.accounting());
}

CellResult run_cell_impl(const ScenarioConfig& config, const WorkloadShape& s,
                         const core::ClusterSpec& spec, std::uint64_t salt,
                         CellResult cell) {
  const StrategyKind e = cell.engine;

  core::EngineParams params;
  params.cluster = spec;
  params.k = config.effective_k();
  params.chunks_per_partition = config.chunks_per_partition;
  params.a_blocks = s.a_blocks;
  params.inner_jobs = config.inner_jobs;
  // The robustness profiles run health-informed prediction (the monitor's
  // degradation scale shrinks a fail-slow worker's allocation ahead of
  // the raw predictor); the original profiles must not — the wrap changes
  // allocations, and their fingerprints are golden-pinned.
  params.health_informed = trace_profile_is_robustness(cell.trace);
  // The bundle outlives the engine: the LSTM adapter references it.
  ColumnPredictor bundle;
  if (core::strategy_uses_predictions(e)) {
    bundle = make_column_predictor(config, cell.workload, cell.trace);
    params.oracle_speeds = bundle.oracle();
    params.predictor = std::move(bundle.predictor);
  } else if (core::strategy_is_coded(e)) {
    // Prediction-blind coded strategies (mds, poly-conventional, lt)
    // allocate without forecasts; speeds only feed their misprediction
    // telemetry, so they read the oracle (the job driver's rule).
    params.oracle_speeds = true;
  }

  // Cell-local operators and truths; params borrow pointers, so these
  // must outlive the engine below. Only coded cells with a decode verify
  // (the MDS-family/lt engines everywhere, poly on the Hessian workload);
  // the uncoded baselines have nothing to decode and stay
  // latency-shape-only.
  linalg::Matrix dense;
  linalg::CsrMatrix link;
  linalg::Vector x;
  linalg::Vector truth_y;
  linalg::Matrix truth_h;
  bool verify_y = false;
  bool verify_h = false;

  switch (e) {
    case StrategyKind::kS2C2:
    case StrategyKind::kS2C2Basic:
    case StrategyKind::kMds:
    case StrategyKind::kAgc:
    case StrategyKind::kLt:
      // The MDS family and the LT engine share one operator setup; LT
      // additionally salts its symbol graph per cell, mirroring how
      // replication salts its placement.
      if (e == StrategyKind::kLt) {
        params.code_seed = mix64(salt ^ 0x17c0deull);
      }
      if (config.functional) {
        util::Rng op_rng(mix64(salt ^ 0x0be7a70ull));
        x.resize(s.cols);
        for (auto& v : x) v = op_rng.normal();
        if (s.sparse) {
          const auto adj = workload::power_law_digraph(s.rows, 6, op_rng);
          link = workload::link_matrix(adj);
          truth_y = link.matvec(x);
          params.sparse = &link;
        } else {
          dense = linalg::Matrix::random_uniform(s.rows, s.cols, op_rng);
          truth_y = dense.matvec(x);
          params.dense = &dense;
        }
        verify_y = true;
      } else {
        params.rows = s.rows;
        params.cols = s.cols;
      }
      break;
    case StrategyKind::kPoly:
    case StrategyKind::kPolyConventional: {
      const std::size_t d = round_to_blocks(s.cols, s.a_blocks);
      const std::size_t out_rows = d / s.a_blocks;
      params.chunks_per_partition = std::min(
          config.chunks_per_partition, std::max<std::size_t>(out_rows, 1));
      if (config.functional && cell.workload == WorkloadKind::kHessian) {
        util::Rng op_rng(mix64(salt ^ 0x0be7a70ull));
        dense = linalg::Matrix::random_uniform(s.rows, d, op_rng);
        x.resize(s.rows);
        for (auto& v : x) v = op_rng.uniform(0.1, 1.0);
        truth_h = coding::PolyCode::hessian_direct(dense, x);
        params.dense = &dense;
        verify_h = true;
      } else {
        params.rows = s.rows;
        params.cols = d;
      }
      break;
    }
    case StrategyKind::kReplication:
      params.replication.placement_seed = mix64(salt ^ 0x91ace3e9ull);
      params.rows = s.rows;
      params.cols = s.cols;
      break;
    case StrategyKind::kOverDecomp:
      params.rows = s.rows;
      params.cols = s.cols;
      break;
  }

  const std::unique_ptr<core::StrategyEngine> engine =
      core::make_engine(e, std::move(params));
  run_cell_rounds(config, *engine, cell,
                  (verify_y || verify_h) ? std::span<const double>(x)
                                         : std::span<const double>{},
                  verify_y ? &truth_y : nullptr,
                  verify_h ? &truth_h : nullptr);
  return cell;
}

}  // namespace

CellResult run_cell(const ScenarioConfig& config, StrategyKind e,
                    WorkloadKind w, TraceProfile t) {
  if (config.workers < 2) {
    throw std::invalid_argument("scenario matrix needs >= 2 workers");
  }
  require_k_within_workers("scenario matrix", config.workers, config.k);
  const std::uint64_t salt = cell_seed(config.seed, e, w, t);
  const WorkloadShape shape = workload_shape(w, config);
  // Traces are salted per (workload, profile) column, NOT per engine —
  // engines being compared must face the same realized cluster.
  const core::ClusterSpec spec =
      make_cluster(t, config, trace_salt(config.seed, w, t));

  CellResult cell;
  cell.engine = e;
  cell.workload = w;
  cell.trace = t;
  cell.workers = config.workers;
  cell.predictor = config.predictor;
  try {
    return run_cell_impl(config, shape, spec, salt, cell);
  } catch (const std::runtime_error& ex) {
    // Unrecoverable cluster failures (the failure-injection profile can
    // push a baseline past its redundancy) are data, not crashes: the cell
    // records the deterministic failure and the sweep continues.
    cell.failed = true;
    cell.error = ex.what();
    return cell;
  }
}

MatrixResult run_scenario_matrix(const ScenarioConfig& config,
                                 std::span<const StrategyKind> engines,
                                 std::span<const WorkloadKind> workloads,
                                 std::span<const TraceProfile> traces) {
  MatrixResult out;
  out.config = config;
  out.cells.reserve(engines.size() * workloads.size() * traces.size());
  for (const StrategyKind e : engines) {
    for (const WorkloadKind w : workloads) {
      for (const TraceProfile t : traces) {
        out.cells.push_back(run_cell(config, e, w, t));
      }
    }
  }
  return out;
}

MatrixResult run_scenario_matrix(const ScenarioConfig& config) {
  const auto engines = all_engines();
  const auto workloads = all_workloads();
  const auto traces = all_trace_profiles();
  return run_scenario_matrix(config, engines, workloads, traces);
}

}  // namespace s2c2::harness
