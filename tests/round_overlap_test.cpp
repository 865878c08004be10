// The round executor's overlapped tail: a functional round with a
// predictor update or queued decode factorizations runs them on a helper
// thread beside the decode. These tests pin that the overlap is invisible
// in the results: the same engine run at top level (helper path) and
// inside a util::parallel_for body (serial path, where the decode factors
// on demand) must agree bit for bit, in every round's stats, products,
// next-round predictions and decode-cache telemetry; and a failing
// predictor update must surface as the round's exception without hanging.
// The suite rides in the tsan preset's filter.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/coded_job.h"
#include "src/core/engine.h"
#include "src/predict/lstm.h"
#include "src/util/hash.h"
#include "src/util/thread_pool.h"
#include "src/workload/trace_gen.h"
#include "tests/test_util.h"

namespace s2c2::core {
namespace {

/// Forwards to an LstmPredictor and counts the batched updates that ran
/// inside a fan-out body, which tells the overlapped tail from the serial
/// one at top level.
class ProbePredictor final : public predict::SpeedPredictor {
 public:
  ProbePredictor(std::size_t n, const predict::Lstm& model,
                 std::size_t* in_fanout)
      : inner_(n, model), in_fanout_(in_fanout) {}
  void observe(std::size_t worker, double speed) override {
    inner_.observe(worker, speed);
  }
  double predict(std::size_t worker) override {
    return inner_.predict(worker);
  }
  void observe_all(std::span<const double> speeds) override {
    if (util::ThreadPool::in_worker()) ++*in_fanout_;
    inner_.observe_all(speeds);
  }
  void predict_all(std::span<double> out) override {
    inner_.predict_all(out);
  }
  std::string name() const override { return "probe"; }

 private:
  predict::LstmPredictor inner_;
  std::size_t* in_fanout_;
};

/// Fails every batched update.
class FailingPredictor final : public predict::SpeedPredictor {
 public:
  void observe(std::size_t, double) override {}
  double predict(std::size_t) override { return 1.0; }
  void observe_all(std::span<const double>) override {
    throw std::runtime_error("predictor update failed");
  }
  std::string name() const override { return "failing"; }
};

constexpr std::size_t kN = 12, kK = 10, kChunks = 8, kRounds = 12;

/// Speeds that spread the allocation and move mid-run, so the §4.3
/// timeout fires on some rounds and the LSTM sees varied inputs.
ClusterSpec varied_cluster() {
  std::vector<sim::SpeedTrace> traces;
  for (std::size_t w = 0; w < kN; ++w) {
    const double before = 0.6 + 0.07 * static_cast<double>(w);
    traces.push_back(w % 4 == 1 ? sim::SpeedTrace::step(2e-4, before, 0.25)
                                : sim::SpeedTrace::constant(before));
  }
  return test::make_spec(std::move(traces));
}

/// One engine run: a fingerprint over every round's stats, speeds and
/// product bits and the accounting totals, plus the last round's product
/// and the predictions of the round after it.
struct EngineRun {
  std::uint64_t fingerprint = util::kFnvOffset;
  std::vector<double> products;
  std::vector<double> next_predicted;
  std::size_t in_fanout = 0;  // updates run inside a fan-out body
  std::size_t timeouts = 0;
};

EngineRun run_engine(std::size_t width, std::size_t inner_jobs) {
  util::Rng rng(41);
  const linalg::Matrix a = linalg::Matrix::random_uniform(240, 30, rng);
  linalg::Matrix x(a.cols(), width);
  for (double& v : x.mutable_data()) v = rng.normal();
  const predict::Lstm model(1, 4, 43);
  EngineRun out;
  EngineConfig cfg;
  cfg.chunks_per_partition = kChunks;
  CodedComputeEngine engine(
      CodedMatVecJob(a, kN, kK, kChunks), varied_cluster(), cfg,
      std::make_unique<ProbePredictor>(kN, model, &out.in_fanout));
  engine.set_inner_jobs(inner_jobs);
  std::uint64_t h = util::kFnvOffset;
  for (std::size_t r = 0; r < kRounds; ++r) {
    RoundResult res = engine.run_round_block(x, width);
    h = util::fnv1a(h, res.stats.start);
    h = util::fnv1a(h, res.stats.coverage);
    h = util::fnv1a(h, res.stats.end);
    h = util::fnv1a(h, std::uint64_t{res.stats.reassigned_chunks});
    for (double v : res.predicted_speeds) h = util::fnv1a(h, v);
    for (double v : res.observed_speeds) h = util::fnv1a(h, v);
    const std::span<const double> y =
        width == 1 ? std::span<const double>(*res.y) : res.y_block->data();
    for (double v : y) h = util::fnv1a(h, v);
    out.products.assign(y.begin(), y.end());
    if (res.stats.timeout_fired) ++out.timeouts;
    engine.recycle(std::move(res));
  }
  h = util::fnv1a(h, engine.accounting().total_useful());
  h = util::fnv1a(h, engine.accounting().total_wasted());
  out.fingerprint = h;
  // The next round's predictions, read after the last overlapped update.
  out.next_predicted = engine.run_round().predicted_speeds;
  return out;
}

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(double));
  return out;
}

TEST(RoundOverlap, OverlappedRoundMatchesSerialRound) {
  for (const std::size_t width : {std::size_t{1}, std::size_t{16}}) {
    for (const std::size_t inner : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE("width " + std::to_string(width) + ", inner_jobs " +
                   std::to_string(inner));
      const EngineRun overlapped = run_engine(width, inner);
      // Every functional round overlapped; the cost-only probe round did not.
      EXPECT_EQ(overlapped.in_fanout, kRounds);
      EngineRun serial;
      util::ThreadPool pool(1);
      pool.parallel_for(2, [&](std::size_t i) {
        if (i == 0) serial = run_engine(width, inner);
      });
      EXPECT_GT(serial.timeouts, 0u) << "no recovery round was exercised";
      EXPECT_EQ(overlapped.fingerprint, serial.fingerprint);
      EXPECT_EQ(bits(overlapped.products), bits(serial.products));
      EXPECT_EQ(bits(overlapped.next_predicted), bits(serial.next_predicted));
      EXPECT_EQ(overlapped.timeouts, serial.timeouts);
    }
  }
}

/// Recovery rounds: s2c2 at n = 40, k = 32 on volatile cloud traces, where
/// the §4.3 timeout fires on most rounds and fresh responder sets miss the
/// decode cache every round, so the helper has factorizations to run.
constexpr std::size_t kRecN = 40, kRecK = 32, kRecRounds = 60;

struct RecoveryVariant {
  const char* name;
  std::size_t inner_jobs;
  bool byzantine;  // one corrupted parity worker: the decode verifies
  bool oracle;     // no predictor: the helper only factors
};

struct RecoveryRun {
  std::uint64_t fingerprint = util::kFnvOffset;
  coding::DecodeContextStats stats;
  std::size_t in_fanout = 0;
  std::size_t timeouts = 0;
  std::size_t miss_rounds = 0;  // rounds that factored a fresh system
  std::size_t byzantine_detected = 0;
};

RecoveryRun run_recovery(const RecoveryVariant& v) {
  util::Rng rng(0x5ec0);
  const linalg::Matrix a =
      linalg::Matrix::random_uniform(16 * kRecK, 24, rng);
  linalg::Vector x(a.cols());
  for (double& e : x) e = rng.normal();
  const CodedMatVecJob job(a, kRecN, kRecK, kChunks);
  EngineConfig cfg;
  cfg.strategy = StrategyKind::kS2C2;
  cfg.chunks_per_partition = kChunks;
  // One trace sample per round of a unit-speed cluster.
  EngineConfig probe = cfg;
  probe.oracle_speeds = true;
  const double dt =
      CodedComputeEngine(job, test::make_spec(test::uniform_traces(kRecN)),
                         probe)
          .run_round()
          .stats.latency();
  ClusterSpec spec = test::make_spec(workload::traces_from_series(
      workload::cloud_speed_corpus(kRecN, 4 * kRecRounds,
                                   workload::volatile_cloud_config(), rng),
      dt));
  if (v.byzantine) {
    spec.byzantine.corrupt_workers = {kRecN - 1};
    spec.byzantine.seed = 99;
  }
  const predict::Lstm model(1, 4, 43);
  RecoveryRun out;
  cfg.oracle_speeds = v.oracle;
  CodedComputeEngine engine(
      job, std::move(spec), cfg,
      v.oracle ? nullptr
               : std::make_unique<ProbePredictor>(kRecN, model,
                                                  &out.in_fanout));
  engine.set_inner_jobs(v.inner_jobs);
  std::uint64_t h = util::kFnvOffset;
  for (std::size_t r = 0; r < kRecRounds; ++r) {
    const std::size_t factored = engine.decode_stats().factorizations;
    RoundResult res = engine.run_round(x);
    h = util::fnv1a(h, res.stats.start);
    h = util::fnv1a(h, res.stats.coverage);
    h = util::fnv1a(h, res.stats.end);
    h = util::fnv1a(h, std::uint64_t{res.stats.reassigned_chunks});
    h = util::fnv1a(h, std::uint64_t{res.stats.corrupted_chunks});
    for (double e : res.predicted_speeds) h = util::fnv1a(h, e);
    for (double e : res.observed_speeds) h = util::fnv1a(h, e);
    for (double e : *res.y) h = util::fnv1a(h, e);
    const coding::DecodeContextStats d = engine.decode_stats();
    h = util::fnv1a(h, std::uint64_t{d.hits});
    h = util::fnv1a(h, std::uint64_t{d.misses});
    h = util::fnv1a(h, std::uint64_t{d.factorizations});
    if (d.factorizations > factored) ++out.miss_rounds;
    if (res.stats.timeout_fired) ++out.timeouts;
    out.byzantine_detected += res.stats.byzantine_detected;
    engine.recycle(std::move(res));
  }
  out.fingerprint = h;
  out.stats = engine.decode_stats();
  return out;
}

TEST(RoundOverlap, RecoveryFactorizationsOnTheHelperMatchSerialRounds) {
  for (const RecoveryVariant& v :
       {RecoveryVariant{"lstm", 1, false, false},
        RecoveryVariant{"lstm, inner_jobs 2", 2, false, false},
        RecoveryVariant{"lstm, byzantine", 1, true, false},
        RecoveryVariant{"oracle", 1, false, true}}) {
    SCOPED_TRACE(v.name);
    const RecoveryRun overlapped = run_recovery(v);
    RecoveryRun serial;
    util::ThreadPool pool(1);
    pool.parallel_for(2, [&](std::size_t i) {
      if (i == 0) serial = run_recovery(v);
    });
    // The geometry this is about: timeouts (fewer under exact oracle
    // predictions), and fresh systems to factor on nearly every round.
    EXPECT_GT(serial.timeouts, v.oracle ? 0 : kRecRounds / 4);
    EXPECT_GT(serial.miss_rounds, kRecRounds * 3 / 4);
    if (v.byzantine) {
      // The verification's residual solves run on the round's queued
      // entries, and its leave-one-out subsets overflow the cache.
      EXPECT_GT(serial.byzantine_detected, 0u);
      EXPECT_GT(serial.stats.evictions, 0u);
    } else {
      EXPECT_EQ(serial.stats.evictions, 0u);
    }
    if (!v.oracle) {
      EXPECT_EQ(overlapped.in_fanout, kRecRounds);
    }
    EXPECT_EQ(overlapped.fingerprint, serial.fingerprint);
    EXPECT_EQ(overlapped.stats.hits, serial.stats.hits);
    EXPECT_EQ(overlapped.stats.misses, serial.stats.misses);
    EXPECT_EQ(overlapped.stats.entries, serial.stats.entries);
    EXPECT_EQ(overlapped.stats.factorizations, serial.stats.factorizations);
    EXPECT_EQ(overlapped.stats.factor_flops, serial.stats.factor_flops);
    EXPECT_EQ(overlapped.stats.solve_flops, serial.stats.solve_flops);
    EXPECT_EQ(overlapped.stats.evictions, serial.stats.evictions);
  }
}

TEST(RoundOverlap, PredictorFailurePropagates) {
  test::FunctionalMatVec f(kN, kK);
  EngineConfig cfg;
  cfg.chunks_per_partition = test::kChunks;
  CodedComputeEngine engine(f.job, varied_cluster(), cfg,
                            std::make_unique<FailingPredictor>());
  // Twice: the helper pool must be reusable after a failed round.
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      (void)engine.run_round(f.x);
      ADD_FAILURE() << "the predictor's exception was swallowed";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "predictor update failed");
    }
  }
}

}  // namespace
}  // namespace s2c2::core
