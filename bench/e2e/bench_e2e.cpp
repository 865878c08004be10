// bench_e2e — the repository benchmark (workloads, metrics and the
// metric -> layer -> workload map: bench/e2e/README.md).
//
// One process runs one workload on one caller thread for a wall-clock
// budget and prints, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//   --trace 0  end-to-end metrics, tracing off: ops_per_s (wall), setup_s
//              (wall), peak_rss_mb, sim_ms (simulated clock).
//   --trace 1  per-layer metrics from instrumented passes: spans around
//              every engine round, a timed predictor decorator, a counting
//              operator new, and an out-of-engine replay of each round's
//              lifecycle through the layers' public functions
//              (bench/e2e/replay.h). No end-to-end metric comes from it.
//
// Guards print "FAIL: ..." and make the process exit 1: decoded products,
// served products and job trajectories must match their direct reference
// within 1e-6, and every workload must keep exercising the layer it was
// chosen for (check_steady, check_recovery, run_serve_calls, run_suites).
//
// Usage: bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--scale F] [--spans PATH]
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/e2e/replay.h"
#include "src/core/engine.h"
#include "src/harness/job_driver.h"
#include "src/harness/scenario_matrix.h"
#include "src/harness/serve.h"
#include "src/linalg/matrix.h"
#include "src/predict/lstm.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"
#include "src/workload/trace_gen.h"

// ---- heap-allocation counter ------------------------------------------------
// Replaces the global throwing operator new (malloc-backed, as in
// tests/arena_test.cpp). Counts only while g_counting is set: the traced
// pass sets it around each warm engine round.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace s2c2::bench_e2e {
namespace {

using harness::TraceProfile;
using util::mix64;

constexpr double kInf = std::numeric_limits<double>::infinity();
// Every decoded, served or iterated product must sit this close to its
// direct (uncoded) reference.
constexpr double kTolerance = 1e-6;
// Set-up is repeated and its median reported, so a one-off hiccup cannot
// move setup_s.
constexpr std::size_t kSetupReps = 5;
// serve-b16 and jobs-suite cycle through this many sub-seeds of the run's
// seed and pool their simulated-clock metric over one full cycle, which
// keeps its spread across seeds under 3%.
constexpr std::size_t kSubSeeds = 8;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;  // multiplies the fixed op counts (smoke runs: 0.05)
  std::string spans_path;
};

/// Fixed op count `n` at the run's scale, never below `floor`.
std::size_t scaled(const Options& o, std::size_t n, std::size_t floor) {
  return std::max(floor, static_cast<std::size_t>(
                             std::llround(static_cast<double>(n) * o.scale)));
}

/// Deterministic, distinct seeds derived from the run's seed.
std::uint64_t sub_seed(std::uint64_t seed, std::size_t i) {
  return mix64(seed) + i;
}

std::size_t inner_jobs_for_scaling() {
  return std::min<std::size_t>(4, util::ThreadPool::hardware_threads());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Summary {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double p90 = 0.0;
  std::size_t n = 0;
};

Summary summarize(const std::vector<double>& v) {
  if (v.empty()) return {};
  return {util::percentile(v, 25.0), util::percentile(v, 50.0),
          util::percentile(v, 75.0), util::percentile(v, 90.0), v.size()};
}

/// Throughput of a run: the 90th percentile of its per-episode samples.
/// The host is shared, and other tenants' load only ever slows an episode
/// down, by up to a third for seconds at a time; the fast tail tracks the
/// code's own cost where the median tracks the neighbours.
double fast_tail(const std::vector<double>& ops_per_s) {
  return summarize(ops_per_s).p90;
}

/// The run's outcome: the JSON result line plus the human-readable log.
class Report {
 public:
  void fail(const std::string& why) {
    correct_ = false;
    std::cout << "FAIL: " << why << "\n";
  }

  /// Adds a metric; `clock` and `samples` only feed the log line.
  void add(const std::string& name, double value, const char* unit,
           const char* clock, const Summary* samples = nullptr) {
    if (!std::isfinite(value)) {
      fail(name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back({name, value, unit});
    std::cout << "metric " << name << " = " << fmt(value) << " " << unit
              << " [" << clock << "]";
    if (samples != nullptr) {
      std::cout << " over n=" << samples->n << ": q1 " << fmt(samples->q1)
                << ", median " << fmt(samples->median) << ", q3 "
                << fmt(samples->q3) << ", p90 " << fmt(samples->p90);
    }
    std::cout << "\n";
  }

  void count(std::size_t attempted, std::size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] bool correct() const { return correct_; }

  void print_json() const {
    std::cout << "{\"correct\": " << (correct_ ? "true" : "false")
              << ", \"attempted\": " << std::max<std::size_t>(attempted_, 1)
              << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
                << fmt(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };

  static std::string fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  bool correct_ = true;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Set-up costs per layer, reported from the first set-up repetition.
struct SetupTimes {
  double traces_s = 0.0;  // workload layer: trace generation
  double encode_s = 0.0;  // coding layer: CodedMatVecJob construction
  double train_s = 0.0;   // predict layer: make_column_predictor
};

template <typename Fn>
auto timed_call(double& seconds, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  auto out = fn();
  seconds += seconds_between(t0, Clock::now());
  return out;
}

// ---- rounds workloads -------------------------------------------------------

/// Everything a rounds workload needs: the encoded job (copied into each
/// engine), the cluster, the input panel and its direct product.
struct RoundSetup {
  core::EngineConfig config;
  core::ClusterSpec spec;
  std::optional<core::CodedMatVecJob> job;
  linalg::Matrix x;      // cols x width input panel
  linalg::Matrix truth;  // rows x width direct product A·X
  std::size_t width = 1;
  std::size_t warmup = 0;   // untimed rounds on every fresh engine
  std::size_t episode = 0;  // timed rounds per throughput sample
  // true: every episode runs a fresh engine over the same traces, so the
  // episodes are identical and the traces never run out.
  bool fresh_engine_per_episode = false;
  double horizon = kInf;  // simulated time at which the traces run out
  std::shared_ptr<const predict::Lstm> lstm;  // outlives LstmPredictors
  // Empty for oracle-speed engines.
  std::function<std::unique_ptr<predict::SpeedPredictor>()> predictor;
  std::unique_ptr<core::CodedComputeEngine> engine;  // warmed by setup
};

core::RoundResult run_one(core::CodedComputeEngine& e, const RoundSetup& s) {
  return s.width == 1 ? e.run_round(s.x.data())
                      : e.run_round_block(s.x, s.width);
}

double product_error(const core::RoundResult& r, const RoundSetup& s) {
  if (s.width == 1) {
    return r.y ? linalg::max_abs_diff(*r.y, s.truth.data()) : kInf;
  }
  return r.y_block ? r.y_block->max_abs_diff(s.truth) : kInf;
}

std::unique_ptr<core::CodedComputeEngine> new_engine(
    const RoundSetup& s, std::unique_ptr<predict::SpeedPredictor> predictor,
    std::size_t inner_jobs) {
  auto e = std::make_unique<core::CodedComputeEngine>(*s.job, s.spec, s.config,
                                                      std::move(predictor));
  e->set_inner_jobs(inner_jobs);
  return e;
}

std::unique_ptr<core::CodedComputeEngine> warmed_engine(
    const RoundSetup& s, std::size_t inner_jobs) {
  auto e = new_engine(s, s.predictor ? s.predictor() : nullptr, inner_jobs);
  for (std::size_t i = 0; i < s.warmup; ++i) e->recycle(run_one(*e, s));
  return e;
}

void fill_input(RoundSetup& s, const linalg::Matrix& a, util::Rng& rng) {
  s.x = linalg::Matrix(a.cols(), s.width);
  for (double& v : s.x.mutable_data()) v = rng.normal();
  s.truth = a.matmat(s.x);
}

/// steady-n1000: the warm steady state at the paper's largest fleet. The
/// harness memoizes LSTM training per salt, so set-up repetition `rep`
/// trains from its own seed and every repetition trains cold.
std::unique_ptr<RoundSetup> build_steady(const Options& o, std::size_t rep,
                                         SetupTimes& t) {
  static constexpr std::size_t n = 1000, k = 998, chunks = 8;
  auto s = std::make_unique<RoundSetup>();
  util::Rng rng(mix64(o.seed ^ 0x57ead1000ull));
  s->spec = timed_call(t.traces_s, [&] {
    core::ClusterSpec spec;
    for (std::size_t w = 0; w < n; ++w) {
      spec.traces.push_back(sim::SpeedTrace::constant(rng.uniform(0.7, 1.3)));
    }
    spec.worker_flops = 1e7;
    spec.master_flops = 1e9;
    return spec;
  });
  const linalg::Matrix a = linalg::Matrix::random_uniform(16 * k, 48, rng);
  fill_input(*s, a, rng);
  s->job.emplace(timed_call(t.encode_s, [&] {
    return core::CodedMatVecJob(a, n, k, chunks);
  }));
  harness::ScenarioConfig sc;
  sc.workers = n;
  sc.seed = o.seed + rep;
  sc.predictor = harness::PredictorKind::kLstm;
  s->lstm = timed_call(t.train_s, [&] {
    return harness::make_column_predictor(
               sc, harness::WorkloadKind::kLogisticRegression,
               TraceProfile::kStableCloud)
        .lstm;
  });
  const predict::Lstm& model = *s->lstm;
  s->predictor = [&model] {
    return std::make_unique<predict::LstmPredictor>(n, model);
  };
  s->config.strategy = core::StrategyKind::kS2C2;
  s->config.chunks_per_partition = chunks;
  s->warmup = 50;
  s->episode = scaled(o, 100, 10);
  return s;
}

/// recovery-n250: the §4.3 timeout fires on almost every round.
std::unique_ptr<RoundSetup> build_recovery(const Options& o,
                                           std::size_t /*rep*/,
                                           SetupTimes& t) {
  static constexpr std::size_t n = 250, k = 200, chunks = 8;
  auto s = std::make_unique<RoundSetup>();
  util::Rng rng(mix64(o.seed ^ 0x4ec0e250ull));
  const linalg::Matrix a = linalg::Matrix::random_uniform(16 * k, 48, rng);
  fill_input(*s, a, rng);
  s->job.emplace(timed_call(t.encode_s, [&] {
    return core::CodedMatVecJob(a, n, k, chunks);
  }));
  s->config.strategy = core::StrategyKind::kS2C2;
  s->config.chunks_per_partition = chunks;
  s->warmup = 20;
  s->episode = scaled(o, 100, 10);
  s->fresh_engine_per_episode = true;

  // One trace sample per simulated round: dt is the latency of a
  // unit-speed probe round.
  core::ClusterSpec probe_spec = core::ClusterSpec::uniform(n, 1.0);
  probe_spec.worker_flops = 1e7;
  probe_spec.master_flops = 1e9;
  core::EngineConfig probe_config = s->config;
  probe_config.oracle_speeds = true;
  const double dt =
      core::CodedComputeEngine(*s->job, probe_spec, probe_config)
          .run_round()
          .stats.latency();
  // Rounds under contention run longer than dt; 4x covers the slowest
  // episode seen, and the horizon guard fails loudly if it ever does not.
  const std::size_t samples = 4 * (s->warmup + s->episode);
  s->spec = timed_call(t.traces_s, [&] {
    core::ClusterSpec spec;
    spec.traces = workload::traces_from_series(
        workload::cloud_speed_corpus(n, samples,
                                     workload::volatile_cloud_config(), rng),
        dt);
    spec.worker_flops = 1e7;
    spec.master_flops = 1e9;  // 100x worker_flops, as in bench_rounds
    return spec;
  });
  s->horizon = dt * static_cast<double>(samples - 1);
  s->predictor = [] {
    return std::make_unique<predict::LastValuePredictor>(n);
  };
  return s;
}

// serve-b16's geometry, shared by run_serve calls and the block-round copy.
constexpr std::size_t kServeWorkers = 100;
constexpr std::size_t kServeChunks = 8;
constexpr std::size_t kServeRows = 1600;
constexpr std::size_t kServeCols = 512;
constexpr std::size_t kServeBatch = 16;

harness::ServeConfig serve_config(const Options& o, std::size_t sub,
                                  std::size_t inner_jobs) {
  harness::ServeConfig c;
  c.strategy = core::StrategyKind::kS2C2;
  c.trace = TraceProfile::kVolatileCloud;
  c.workers = kServeWorkers;
  c.chunks_per_partition = kServeChunks;
  c.requests = scaled(o, 1024, 128);
  c.tenants = 8;
  c.load_factor = 16.0;
  c.max_batch = kServeBatch;
  c.functional = true;
  c.op_rows = kServeRows;
  c.op_cols = kServeCols;
  c.seed = sub_seed(o.seed, sub);
  c.inner_jobs = inner_jobs;
  return c;
}

/// serve-b16's block-round copy: the serve geometry built outside
/// run_serve (volatile traces, 1600x512 operator, encoding) and run as
/// width-16 block rounds on oracle speeds, like the serving engine.
std::unique_ptr<RoundSetup> build_serve_copy(const Options& o,
                                             std::size_t /*rep*/,
                                             SetupTimes& t) {
  auto s = std::make_unique<RoundSetup>();
  const harness::ServeConfig c = serve_config(o, 0, 1);
  harness::ScenarioConfig sc;
  sc.workers = c.workers;
  sc.chunks_per_partition = c.chunks_per_partition;
  sc.rounds = c.requests;
  sc.seed = o.seed;
  sc.functional = true;
  s->spec = timed_call(t.traces_s, [&] {
    return harness::make_cluster(c.trace, sc, mix64(o.seed ^ 0x5e12eb16ull));
  });
  util::Rng rng(mix64(o.seed ^ 0x0be7b16ull));
  const linalg::Matrix a =
      linalg::Matrix::random_uniform(kServeRows, kServeCols, rng);
  s->width = kServeBatch;
  fill_input(*s, a, rng);
  s->job.emplace(timed_call(t.encode_s, [&] {
    return core::CodedMatVecJob(a, c.workers, c.effective_k(),
                                c.chunks_per_partition);
  }));
  s->config.strategy = core::StrategyKind::kS2C2;
  s->config.chunks_per_partition = kServeChunks;
  s->config.oracle_speeds = true;
  s->warmup = 4;
  s->episode = scaled(o, 40, 4);
  return s;
}

/// Runs kSetupReps set-ups, each timed into `setup_s`, and keeps the last;
/// `cold` gets the first repetition's per-layer times.
template <typename Build>
std::unique_ptr<RoundSetup> setup_rounds(const Options& o, Build build,
                                         std::vector<double>& setup_s,
                                         SetupTimes& cold) {
  std::unique_ptr<RoundSetup> s;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    SetupTimes t;
    const Clock::time_point t0 = Clock::now();
    s = build(o, rep, t);
    s->engine = warmed_engine(*s, 1);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (rep == 0) cold = t;
  }
  return s;
}

/// Untraced episodes: tracing off, one throughput sample per episode.
struct LoopStats {
  std::vector<double> ops_per_s;
  std::size_t rounds = 0;  // timed rounds
  std::size_t failed = 0;
  double first_episode_sim_ms = 0.0;  // mean simulated round latency
  std::size_t timeouts = 0;
  std::size_t misses = 0;
  double max_err = 0.0;
  bool horizon_ok = true;
};

LoopStats run_untraced(RoundSetup& s, double seconds, std::size_t inner_jobs,
                       Report& report) {
  LoopStats out;
  std::unique_ptr<core::CodedComputeEngine> engine =
      inner_jobs == 1 && s.engine ? std::move(s.engine)
                                  : warmed_engine(s, inner_jobs);
  const Clock::time_point start = Clock::now();
  try {
    for (std::size_t ep = 0;
         ep == 0 || seconds_between(start, Clock::now()) < seconds; ++ep) {
      if (ep > 0 && s.fresh_engine_per_episode) {
        engine = warmed_engine(s, inner_jobs);
      }
      const std::size_t misses0 = engine->decode_stats().misses;
      double sim = 0.0;
      core::RoundResult last;
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < s.episode; ++i) {
        core::RoundResult r = run_one(*engine, s);
        sim += r.stats.latency();
        if (r.stats.timeout_fired) ++out.timeouts;
        if (i + 1 < s.episode) {
          engine->recycle(std::move(r));
        } else {
          last = std::move(r);
        }
      }
      const double wall = seconds_between(t0, Clock::now());
      out.ops_per_s.push_back(static_cast<double>(s.episode) / wall);
      out.rounds += s.episode;
      out.misses += engine->decode_stats().misses - misses0;
      const double err = product_error(last, s);
      if (err > kTolerance) ++out.failed;
      out.max_err = std::max(out.max_err, err);
      if (engine->now() > s.horizon) out.horizon_ok = false;
      if (ep == 0) {
        out.first_episode_sim_ms = 1e3 * sim / static_cast<double>(s.episode);
      }
      engine->recycle(std::move(last));
    }
  } catch (const std::exception& e) {
    ++out.failed;
    report.fail(std::string("round threw: ") + e.what());
  }
  return out;
}

/// Traced pass: spans around every engine round, the timed predictor, the
/// allocation counter, and a replay of every round.
struct TracedStats {
  std::vector<double> round_ms;
  // Engine-round throughput per `episode` traced rounds (replay excluded).
  std::vector<double> ops_per_s;
  double predict_s = 0.0;
  std::size_t predict_calls = 0;
  std::size_t heap_allocs = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  double factor_flops = 0.0;
  std::size_t timeouts = 0;
  std::size_t reassigned = 0;
  double decode_share_sum = 0.0;
  double max_err = 0.0;
  ReplayStats replay;
  std::string first_mismatch;
  std::size_t failed = 0;

  [[nodiscard]] std::size_t rounds() const { return round_ms.size(); }
};

void add_replay(ReplayStats& into, const ReplayStats& from) {
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    into.phase_s[p] += from.phase_s[p];
  }
  into.rounds += from.rounds;
  into.mismatch_rounds += from.mismatch_rounds;
  into.groups += from.groups;
  into.chunk_flops += from.chunk_flops;
}

TracedStats run_traced(const RoundSetup& s, double seconds, SpanLog& spans,
                       Report& report) {
  TracedStats out;
  std::unique_ptr<core::CodedComputeEngine> engine;
  std::unique_ptr<RoundReplayer> replayer;
  TimedPredictor* timed = nullptr;
  std::size_t round_id = 0;
  std::size_t in_episode = 0;
  double episode_ms = 0.0;
  auto retire = [&] {
    if (!replayer) return;
    add_replay(out.replay, replayer->stats());
    if (out.first_mismatch.empty()) {
      out.first_mismatch = replayer->first_mismatch();
    }
  };
  // A fresh engine and replayer: the replayer's decode cache must see
  // every round from the engine's first, warm-up included.
  auto fresh = [&] {
    retire();
    replayer.reset();
    std::unique_ptr<predict::SpeedPredictor> p;
    timed = nullptr;
    if (s.predictor) {
      auto t = std::make_unique<TimedPredictor>(s.predictor());
      timed = t.get();
      p = std::move(t);
    }
    engine = new_engine(s, std::move(p), 1);
    replayer = std::make_unique<RoundReplayer>(
        engine->job(), engine->cluster(), s.config.timeout_factor, spans);
    for (std::size_t i = 0; i < s.warmup; ++i) {
      core::RoundResult r = run_one(*engine, s);
      replayer->replay(r, s.x.data(), s.width, round_id++, false);
      engine->recycle(std::move(r));
    }
    in_episode = 0;
  };
  const Clock::time_point start = Clock::now();
  try {
    fresh();
    while (out.ops_per_s.empty() ||
           seconds_between(start, Clock::now()) < seconds) {
      if (s.fresh_engine_per_episode && in_episode == s.episode) fresh();
      const coding::DecodeContextStats d0 = engine->decode_stats();
      const double p0 = timed ? timed->busy_s() : 0.0;
      const std::size_t c0 = timed ? timed->calls() : 0;
      const std::size_t span = spans.open("core.round", round_id);
      g_alloc_count.store(0, std::memory_order_relaxed);
      g_counting.store(true, std::memory_order_relaxed);
      core::RoundResult r = run_one(*engine, s);
      g_counting.store(false, std::memory_order_relaxed);
      out.round_ms.push_back(1e3 * spans.close(span));
      out.heap_allocs += g_alloc_count.load(std::memory_order_relaxed);
      const coding::DecodeContextStats d1 = engine->decode_stats();
      out.hits += d1.hits - d0.hits;
      out.misses += d1.misses - d0.misses;
      out.factor_flops += d1.factor_flops - d0.factor_flops;
      if (timed) {
        out.predict_s += timed->busy_s() - p0;
        out.predict_calls += timed->calls() - c0;
      }
      if (r.stats.timeout_fired) ++out.timeouts;
      out.reassigned += r.stats.reassigned_chunks;
      out.decode_share_sum +=
          (r.stats.end - r.stats.coverage) / r.stats.latency();
      const double err = product_error(r, s);
      if (err > kTolerance) ++out.failed;
      out.max_err = std::max(out.max_err, err);
      replayer->replay(r, s.x.data(), s.width, round_id++, true);
      engine->recycle(std::move(r));
      episode_ms += out.round_ms.back();
      if (++in_episode % s.episode == 0) {
        out.ops_per_s.push_back(1e3 * static_cast<double>(s.episode) /
                                episode_ms);
        episode_ms = 0.0;
      }
    }
  } catch (const std::exception& e) {
    ++out.failed;
    report.fail(std::string("traced round threw: ") + e.what());
  }
  retire();
  return out;
}

// ---- per-layer metric sheet -------------------------------------------------

/// Every per-layer metric, in BENCHMARK.json order. A metric a workload
/// does not reach stays 0 (bench/e2e/README.md says which apply where).
class LayerSheet {
 public:
  LayerSheet() : values_(std::size(kEntries), 0.0) {}
  void set(const std::string& name, double v) {
    for (std::size_t i = 0; i < std::size(kEntries); ++i) {
      if (name == kEntries[i].name) {
        values_[i] = v;
        return;
      }
    }
    throw std::logic_error("unknown per-layer metric " + name);
  }
  void report(Report& r) const {
    for (std::size_t i = 0; i < std::size(kEntries); ++i) {
      r.add(kEntries[i].name, values_[i], kEntries[i].unit, "traced");
    }
  }

 private:
  struct Entry {
    const char* name;
    const char* unit;
  };
  static constexpr Entry kEntries[] = {
      {"predict.ms_per_round", "ms"},
      {"predict.calls_per_round", "count"},
      {"predict.train_s", "s"},
      {"core.heap_allocs_per_round", "count"},
      {"core.round_ms_p50", "ms"},
      {"core.round_ms_p99", "ms"},
      {"core.round_samples", "count"},
      {"core.unattributed_ms", "ms"},
      {"sched.allocate_ms", "ms"},
      {"sched.collect_ms", "ms"},
      {"sched.reassign_ms", "ms"},
      {"sched.reassigned_chunks_per_round", "count"},
      {"sim.dispatch_ms", "ms"},
      {"sim.account_ms", "ms"},
      {"sim.timeout_rate", "ratio"},
      {"sim.decode_share", "ratio"},
      {"telemetry.health_ms", "ms"},
      {"coding.charge_ms", "ms"},
      {"coding.stage_ms", "ms"},
      {"coding.decode_ms", "ms"},
      {"coding.hits_per_round", "count"},
      {"coding.misses_per_round", "count"},
      {"coding.factor_mflop_per_round", "Mflop"},
      {"coding.groups_per_round", "count"},
      {"coding.encode_s", "s"},
      {"coding.max_abs_err", "abs"},
      {"linalg.chunk_compute_ms", "ms"},
      {"linalg.chunk_gflop_s", "Gflop/s"},
      {"harness.serve_rounds", "count"},
      {"harness.serve_batch_mean", "count"},
      {"harness.serve_overhead_ms_per_round", "ms"},
      {"harness.job_ms_per_round", "ms"},
      {"harness.sim_speedup_vs_mds", "x"},
      {"workload.traces_s", "s"},
      {"util.inner4_speedup", "x"},
      {"replay.rounds", "count"},
      {"replay.mismatch_rounds", "count"},
      {"trace_overhead_pct", "%"},
  };
  std::vector<double> values_;
};

void set_setup_layers(LayerSheet& sheet, const SetupTimes& cold) {
  sheet.set("coding.encode_s", cold.encode_s);
  sheet.set("predict.train_s", cold.train_s);
  sheet.set("workload.traces_s", cold.traces_s);
}

/// Fills the round-lifecycle layers from a traced pass; `untraced` is the
/// same loop with tracing off, and the overhead compares the fast tails of
/// their equal-size episodes.
void set_round_layers(LayerSheet& sheet, const TracedStats& t,
                      const LoopStats& untraced, Report& report) {
  // Every traced round is replayed once, so one count serves both.
  const double rounds =
      static_cast<double>(std::max<std::size_t>(t.rounds(), 1));
  auto per_round = [&](double total) { return total / rounds; };
  const ReplayStats& rp = t.replay;
  auto phase_ms = [&](Phase p) { return per_round(1e3 * rp.phase_s[p]); };
  double round_s = 0.0;
  for (double ms : t.round_ms) round_s += ms / 1e3;
  double phases_ms = 0.0;
  for (std::size_t p = 0; p < kNumPhases; ++p) phases_ms += phase_ms(Phase(p));
  auto count = [&](std::size_t n) {
    return per_round(static_cast<double>(n));
  };

  sheet.set("predict.ms_per_round", per_round(1e3 * t.predict_s));
  sheet.set("predict.calls_per_round", count(t.predict_calls));
  sheet.set("core.heap_allocs_per_round", count(t.heap_allocs));
  sheet.set("core.round_ms_p50", util::percentile(t.round_ms, 50.0));
  sheet.set("core.round_ms_p99", util::percentile(t.round_ms, 99.0));
  sheet.set("core.round_samples", static_cast<double>(t.rounds()));
  // The replay's phases time only calls into src/, so the rest is the
  // engine's own code between those calls.
  sheet.set("core.unattributed_ms",
            per_round(1e3 * (round_s - t.predict_s)) - phases_ms);
  sheet.set("sched.allocate_ms", phase_ms(kAllocate));
  sheet.set("sched.collect_ms", phase_ms(kCollect));
  sheet.set("sched.reassign_ms", phase_ms(kReassign));
  sheet.set("sched.reassigned_chunks_per_round", count(t.reassigned));
  sheet.set("sim.dispatch_ms", phase_ms(kDispatch));
  sheet.set("sim.account_ms", phase_ms(kAccount));
  sheet.set("sim.timeout_rate", count(t.timeouts));
  sheet.set("sim.decode_share", per_round(t.decode_share_sum));
  sheet.set("telemetry.health_ms", phase_ms(kHealth));
  sheet.set("coding.charge_ms", phase_ms(kCharge));
  sheet.set("coding.stage_ms", phase_ms(kStage));
  sheet.set("coding.decode_ms", phase_ms(kDecode));
  sheet.set("coding.hits_per_round", count(t.hits));
  sheet.set("coding.misses_per_round", count(t.misses));
  sheet.set("coding.factor_mflop_per_round", per_round(t.factor_flops / 1e6));
  sheet.set("coding.groups_per_round", count(rp.groups));
  sheet.set("coding.max_abs_err", t.max_err);
  sheet.set("linalg.chunk_compute_ms", phase_ms(kChunkCompute));
  sheet.set("linalg.chunk_gflop_s",
            rp.phase_s[kChunkCompute] > 0.0
                ? rp.chunk_flops / rp.phase_s[kChunkCompute] / 1e9
                : 0.0);
  sheet.set("replay.rounds", static_cast<double>(rp.rounds));
  sheet.set("replay.mismatch_rounds",
            static_cast<double>(rp.mismatch_rounds));
  sheet.set("trace_overhead_pct",
            100.0 * (fast_tail(untraced.ops_per_s) / fast_tail(t.ops_per_s) -
                     1.0));
  if (rp.mismatch_rounds > 0) {
    report.fail("replay.mismatch_rounds = " +
                std::to_string(rp.mismatch_rounds) + " (" + t.first_mismatch +
                ")");
  }
  if (t.max_err > kTolerance) {
    report.fail("traced decoded product off by " + std::to_string(t.max_err));
  }
}

void write_spans(const Options& o, const SpanLog& spans) {
  if (o.spans_path.empty()) return;
  std::ofstream out(o.spans_path);
  spans.write_jsonl(out);
  if (!out) throw std::runtime_error("cannot write spans to " + o.spans_path);
}

/// `ops_per_s` is the run's reported throughput; `episodes` (one sample
/// per episode) only feeds the log line.
void report_end_to_end(Report& report, double ops_per_s,
                       const std::vector<double>& episodes,
                       const char* op_unit, const std::vector<double>& setup_s,
                       double sim_ms) {
  const Summary ops = summarize(episodes);
  const Summary setup = summarize(setup_s);
  std::cout << "ops_per_s counts " << op_unit << "; episodes:\n";
  report.add("ops_per_s", ops_per_s, "1/s", "wall", &ops);
  report.add("setup_s", setup.median, "s", "wall", &setup);
  report.add("peak_rss_mb", peak_rss_mib(), "MiB", "wall");
  report.add("sim_ms", sim_ms, "ms", "sim");
}

using RoundCheck = std::function<void(const LoopStats&, Report&)>;

void check_products(const LoopStats& a, Report& report) {
  if (a.max_err > kTolerance) {
    report.fail("decoded product off by " + std::to_string(a.max_err) +
                " (tolerance 1e-6)");
  }
}

void check_steady(const LoopStats& a, Report& report) {
  check_products(a, report);
  if (a.timeouts != 0 || a.misses != 0) {
    report.fail("steady-n1000 left its steady state: " +
                std::to_string(a.timeouts) + " timeouts, " +
                std::to_string(a.misses) + " decode misses after warm-up");
  }
}

void check_recovery(const LoopStats& a, Report& report) {
  check_products(a, report);
  const double rounds = static_cast<double>(std::max<std::size_t>(a.rounds, 1));
  const double timeout_rate = static_cast<double>(a.timeouts) / rounds;
  const double misses = static_cast<double>(a.misses) / rounds;
  if (timeout_rate < 0.5 || misses < 4.0) {
    report.fail("recovery-n250 stopped exercising recovery: timeout rate " +
                std::to_string(timeout_rate) + " (< 0.5?), " +
                std::to_string(misses) + " misses/round (< 4?)");
  }
  if (!a.horizon_ok) report.fail("recovery-n250 ran past its speed traces");
}

template <typename Build>
void run_rounds_workload(const Options& o, Report& report, Build build,
                         const RoundCheck& check) {
  std::vector<double> setup_s;
  SetupTimes cold;
  std::unique_ptr<RoundSetup> s = setup_rounds(o, build, setup_s, cold);
  if (!o.trace) {
    const LoopStats a = run_untraced(*s, o.seconds, 1, report);
    check(a, report);
    report.count(a.rounds, a.failed);
    report_end_to_end(report, fast_tail(a.ops_per_s), a.ops_per_s, "rounds",
                      setup_s, a.first_episode_sim_ms);
    return;
  }
  const LoopStats a = run_untraced(*s, 0.3 * o.seconds, 1, report);
  check(a, report);
  SpanLog spans;
  const TracedStats t = run_traced(*s, 0.5 * o.seconds, spans, report);
  const LoopStats c =
      run_untraced(*s, 0.2 * o.seconds, inner_jobs_for_scaling(), report);
  check(c, report);
  report.count(a.rounds + t.rounds() + c.rounds,
               a.failed + t.failed + c.failed);

  LayerSheet sheet;
  set_setup_layers(sheet, cold);
  set_round_layers(sheet, t, a, report);
  sheet.set("util.inner4_speedup",
            fast_tail(c.ops_per_s) / fast_tail(a.ops_per_s));
  sheet.report(report);
  write_spans(o, spans);
}

// ---- serve-b16 --------------------------------------------------------------

struct ServeLoop {
  std::vector<double> ops_per_s;  // requests per wall second, per call
  std::vector<double> ms_per_round;  // wall per coalesced round, per call
  std::size_t requests = 0;
  std::size_t failed = 0;
  std::size_t rounds = 0;
  std::size_t completed = 0;
  std::vector<double> first_cycle_latencies;  // simulated, seconds
};

/// run_serve calls cycling through the sub-seeds, at least `min_calls`.
ServeLoop run_serve_calls(const Options& o, double seconds,
                          std::size_t min_calls, std::size_t inner_jobs,
                          Report& report) {
  ServeLoop out;
  const Clock::time_point start = Clock::now();
  try {
    for (std::size_t call = 0;
         call < min_calls || seconds_between(start, Clock::now()) < seconds;
         ++call) {
      const harness::ServeConfig c =
          serve_config(o, call % kSubSeeds, inner_jobs);
      const Clock::time_point t0 = Clock::now();
      const harness::ServeResult r = harness::run_serve(c);
      const double wall = seconds_between(t0, Clock::now());
      out.ops_per_s.push_back(static_cast<double>(c.requests) / wall);
      out.ms_per_round.push_back(1e3 * wall / static_cast<double>(r.rounds));
      out.requests += c.requests;
      out.rounds += r.rounds;
      out.completed += r.completed;
      if (call < kSubSeeds) {
        for (const harness::RequestOutcome& q : r.outcomes) {
          if (!q.rejected) out.first_cycle_latencies.push_back(q.latency());
        }
      }
      out.failed += c.requests - r.completed;
      if (r.completed != c.requests) {
        report.fail("serve completed " + std::to_string(r.completed) + " of " +
                    std::to_string(c.requests) + " requests");
      }
      if (r.max_error > kTolerance) {
        out.failed += r.products_verified;
        report.fail("served product off by " + std::to_string(r.max_error));
      }
    }
  } catch (const std::exception& e) {
    ++out.failed;
    report.fail(std::string("run_serve threw: ") + e.what());
  }
  const double batch_mean =
      out.rounds > 0 ? static_cast<double>(out.completed) /
                           static_cast<double>(out.rounds)
                     : 0.0;
  if (batch_mean < 12.0) {
    report.fail("serve-b16 stopped coalescing: batch mean " +
                std::to_string(batch_mean) + " < 12");
  }
  return out;
}

void run_serve_workload(const Options& o, Report& report) {
  std::vector<double> setup_s;
  SetupTimes cold;
  std::unique_ptr<RoundSetup> s =
      setup_rounds(o, build_serve_copy, setup_s, cold);
  if (!o.trace) {
    const ServeLoop a = run_serve_calls(o, o.seconds, kSubSeeds, 1, report);
    report.count(a.requests, a.failed);
    report_end_to_end(report, fast_tail(a.ops_per_s), a.ops_per_s, "requests",
                      setup_s,
                      1e3 * harness::percentile(a.first_cycle_latencies, 0.99));
    return;
  }
  const ServeLoop a = run_serve_calls(o, 0.3 * o.seconds, 1, 1, report);
  // The block-round copy, untraced then traced: the untraced copy's round
  // wall is what run_serve adds per-round overhead on top of.
  const LoopStats b0 = run_untraced(*s, 0.1 * o.seconds, 1, report);
  check_products(b0, report);
  SpanLog spans;
  const TracedStats t = run_traced(*s, 0.4 * o.seconds, spans, report);
  const ServeLoop c = run_serve_calls(o, 0.2 * o.seconds, 1,
                                      inner_jobs_for_scaling(), report);
  report.count(a.requests + c.requests, a.failed + c.failed + t.failed);

  LayerSheet sheet;
  set_setup_layers(sheet, cold);
  set_round_layers(sheet, t, b0, report);
  const double rounds = static_cast<double>(a.rounds);
  const double calls = static_cast<double>(a.ops_per_s.size());
  sheet.set("harness.serve_rounds", rounds / calls);
  sheet.set("harness.serve_batch_mean",
            static_cast<double>(a.completed) / rounds);
  sheet.set("harness.serve_overhead_ms_per_round",
            util::percentile(a.ms_per_round, 10.0) -
                1e3 / fast_tail(b0.ops_per_s));
  sheet.set("util.inner4_speedup",
            fast_tail(c.ops_per_s) / fast_tail(a.ops_per_s));
  sheet.report(report);
  write_spans(o, spans);
}

// ---- jobs-suite -------------------------------------------------------------

harness::JobConfig job_base(const Options& o, std::uint64_t seed,
                            std::size_t inner_jobs) {
  harness::JobConfig c;
  c.workers = 48;
  c.predictor = harness::PredictorKind::kLstm;
  c.max_iterations = scaled(o, 25, 2);
  c.seed = seed;
  c.inner_jobs = inner_jobs;
  return c;
}

const harness::JobGrid& job_grid() {
  static const harness::JobGrid grid;  // 4 apps x 4 strategies x 2 traces
  return grid;
}

/// Warms the harness's memoized per-column predictor training and builds
/// every column's cluster for one seed.
void setup_jobs(const Options& o, std::uint64_t seed, SetupTimes& t) {
  const harness::ScenarioConfig sc = job_base(o, seed, 1).scenario();
  for (const harness::JobApp app : job_grid().apps) {
    const harness::WorkloadKind column = harness::job_trace_column(app);
    for (const TraceProfile trace : job_grid().traces) {
      const harness::ColumnPredictor p = timed_call(t.train_s, [&] {
        return harness::make_column_predictor(sc, column, trace);
      });
      const core::ClusterSpec spec = timed_call(t.traces_s, [&] {
        return harness::make_cluster(trace, sc,
                                     harness::trace_salt(seed, column, trace));
      });
      if (p.oracle() || spec.num_workers() != sc.workers) {
        throw std::logic_error("jobs-suite set-up built the wrong column");
      }
    }
  }
}

/// The suite's jobs in run_job_suite's order (app, strategy, trace).
std::vector<harness::JobConfig> suite_jobs(const harness::JobConfig& base) {
  std::vector<harness::JobConfig> jobs;
  for (const harness::JobApp app : job_grid().apps) {
    for (const core::StrategyKind strategy : job_grid().strategies) {
      for (const TraceProfile trace : job_grid().traces) {
        harness::JobConfig c = base;
        c.app = app;
        c.strategy = strategy;
        c.trace = trace;
        jobs.push_back(c);
      }
    }
  }
  return jobs;
}

struct JobsLoop {
  std::vector<double> ops_per_s;  // coded rounds per wall second, per suite
  // Per job of the suite: wall ms per coded round, one sample per suite,
  // and the coded rounds it ran over the first cycle of sub-seeds.
  std::vector<std::vector<double>> ms_per_round;
  std::vector<double> cycle_rounds;
  std::size_t jobs = 0;
  std::size_t failed = 0;
  // Simulated job completion over the first cycle of sub-seeds.
  double s2c2_completion = 0.0;
  double mds_completion = 0.0;
  std::size_t s2c2_jobs = 0;

  /// Suite throughput with every job at the fast tail (10th percentile)
  /// of its per-round cost: a job lasts tens of milliseconds, so its fast
  /// tail sees the quiet moments a one-second suite cannot.
  [[nodiscard]] double fast_ops_per_s() const {
    double total_rounds = 0.0;
    double total_ms = 0.0;
    for (std::size_t i = 0; i < ms_per_round.size(); ++i) {
      if (ms_per_round[i].empty()) continue;
      total_rounds += cycle_rounds[i];
      total_ms += util::percentile(ms_per_round[i], 10.0) * cycle_rounds[i];
    }
    return 1e3 * total_rounds / total_ms;
  }
};

/// Job suites cycling through the sub-seeds, at least `min_suites`. Each
/// suite runs its jobs one at a time through harness::run_job, exactly as
/// run_job_suite does on one thread, so that every job is timed.
JobsLoop run_suites(const Options& o, double seconds, std::size_t min_suites,
                    std::size_t inner_jobs, Report& report) {
  JobsLoop out;
  const Clock::time_point start = Clock::now();
  try {
    for (std::size_t ep = 0;
         ep < min_suites || seconds_between(start, Clock::now()) < seconds;
         ++ep) {
      const std::vector<harness::JobConfig> jobs = suite_jobs(
          job_base(o, sub_seed(o.seed, ep % kSubSeeds), inner_jobs));
      out.ms_per_round.resize(jobs.size());
      out.cycle_rounds.resize(jobs.size());
      std::size_t rounds = 0;
      double wall = 0.0;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        const harness::JobResult j = harness::run_job(jobs[i]);
        const double job_s = seconds_between(t0, Clock::now());
        rounds += j.rounds;
        wall += job_s;
        if (j.rounds > 0) {
          out.ms_per_round[i].push_back(1e3 * job_s /
                                        static_cast<double>(j.rounds));
        }
        if (ep < kSubSeeds) {
          out.cycle_rounds[i] += static_cast<double>(j.rounds);
          if (j.strategy == core::StrategyKind::kS2C2) {
            out.s2c2_completion += j.completion_time;
            ++out.s2c2_jobs;
          }
          if (j.strategy == core::StrategyKind::kMds) {
            out.mds_completion += j.completion_time;
          }
        }
        const std::string job = std::string(harness::job_app_name(j.app)) +
                                "/" + core::strategy_name(j.strategy) + "/" +
                                harness::trace_profile_name(j.trace);
        if (j.failed) {
          ++out.failed;
          report.fail("job failed: " + job + ": " + j.error);
        } else if (j.solution_error > kTolerance) {
          ++out.failed;
          report.fail("job trajectory off: " + job + " solution_error " +
                      std::to_string(j.solution_error));
        }
      }
      out.jobs += jobs.size();
      out.ops_per_s.push_back(static_cast<double>(rounds) / wall);
    }
  } catch (const std::exception& e) {
    ++out.failed;
    report.fail(std::string("run_job threw: ") + e.what());
  }
  return out;
}

void run_jobs_workload(const Options& o, Report& report) {
  // One set-up per sub-seed: every repetition trains cold, and the timed
  // suites find every sub-seed's columns warm.
  std::vector<double> setup_s;
  SetupTimes cold;
  for (std::size_t rep = 0; rep < kSubSeeds; ++rep) {
    SetupTimes t;
    const Clock::time_point t0 = Clock::now();
    setup_jobs(o, sub_seed(o.seed, rep), t);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (rep == 0) cold = t;
  }
  if (!o.trace) {
    const JobsLoop a = run_suites(o, o.seconds, kSubSeeds, 1, report);
    report.count(a.jobs, a.failed);
    report_end_to_end(
        report, a.fast_ops_per_s(), a.ops_per_s, "coded rounds", setup_s,
        1e3 * a.s2c2_completion / static_cast<double>(a.s2c2_jobs));
    return;
  }
  const JobsLoop a = run_suites(o, 0.6 * o.seconds, kSubSeeds, 1, report);
  const JobsLoop c =
      run_suites(o, 0.4 * o.seconds, 1, inner_jobs_for_scaling(), report);
  report.count(a.jobs + c.jobs, a.failed + c.failed);
  LayerSheet sheet;
  set_setup_layers(sheet, cold);
  sheet.set("harness.job_ms_per_round", 1e3 / a.fast_ops_per_s());
  sheet.set("harness.sim_speedup_vs_mds",
            a.mds_completion / a.s2c2_completion);
  sheet.set("util.inner4_speedup", c.fast_ops_per_s() / a.fast_ops_per_s());
  sheet.report(report);
}

// ---- command line -----------------------------------------------------------

[[noreturn]] void usage_error(const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: bench_e2e --workload "
               "steady-n1000|recovery-n250|serve-b16|jobs-suite [--seed N] "
               "[--seconds S] [--trace 0|1] [--scale F] [--spans PATH]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        o.workload = v;
        used = v.size();
      } else if (flag == "--seed") {
        o.seed = std::stoull(v, &used);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(v, &used);
      } else if (flag == "--trace") {
        o.trace = std::stoi(v, &used) != 0;
      } else if (flag == "--scale") {
        o.scale = std::stod(v, &used);
      } else if (flag == "--spans") {
        o.spans_path = v;
        used = v.size();
      } else {
        usage_error("unknown flag " + flag);
      }
      if (used != v.size()) usage_error("bad value for " + flag + ": " + v);
    } catch (const std::logic_error&) {
      usage_error("bad value for " + flag + ": " + v);
    }
  }
  if (o.workload.empty()) usage_error("--workload is required");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) {
    usage_error("--seconds must be in (0, 600]");
  }
  if (!(o.scale > 0.0 && o.scale <= 10.0)) {
    usage_error("--scale must be in (0, 10]");
  }
  return o;
}

}  // namespace
}  // namespace s2c2::bench_e2e

int main(int argc, char** argv) {
  using namespace s2c2::bench_e2e;
  const Options o = parse(argc, argv);
  std::cout << "workload " << o.workload << " seed " << o.seed << " seconds "
            << o.seconds << " trace " << (o.trace ? 1 : 0) << " scale "
            << o.scale << "\n";
  Report report;
  try {
    if (o.workload == "steady-n1000") {
      run_rounds_workload(o, report, build_steady, check_steady);
    } else if (o.workload == "recovery-n250") {
      run_rounds_workload(o, report, build_recovery, check_recovery);
    } else if (o.workload == "serve-b16") {
      run_serve_workload(o, report);
    } else if (o.workload == "jobs-suite") {
      run_jobs_workload(o, report);
    } else {
      usage_error("unknown workload " + o.workload);
    }
  } catch (const std::exception& e) {
    report.fail(std::string("benchmark aborted: ") + e.what());
  }
  report.print_json();
  return report.correct() ? 0 : 1;
}
