// Tests for the coded-compute engine: functional correctness under every
// strategy, timeout/failure recovery, waste accounting, and the latency
// orderings the paper's figures rest on.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "src/core/engine.h"
#include "src/util/rng.h"
#include "src/workload/trace_gen.h"
#include "tests/test_util.h"

namespace s2c2::core {
namespace {

using test::expect_close;
using test::kChunks;
using test::make_spec;

using FunctionalSetup = test::FunctionalMatVec;

TEST(Engine, RejectsMismatchedClusterSize) {
  FunctionalSetup f(4, 2);
  EngineConfig cfg;
  cfg.chunks_per_partition = kChunks;
  EXPECT_THROW(CodedComputeEngine(f.job, ClusterSpec::uniform(3), cfg),
               std::invalid_argument);
}

TEST(Engine, RejectsGranularityMismatch) {
  FunctionalSetup f(4, 2);
  EngineConfig cfg;
  cfg.chunks_per_partition = kChunks + 1;
  EXPECT_THROW(CodedComputeEngine(f.job, ClusterSpec::uniform(4), cfg),
               std::invalid_argument);
}

struct StrategyParam {
  StrategyKind strategy;
  std::size_t stragglers;
};

// Names each case from its fields. Without it gtest dumps the struct's
// bytes, padding included, and the discovered test names change from run
// to run.
void PrintTo(const StrategyParam& p, std::ostream* os) {
  *os << strategy_name(p.strategy) << " with " << p.stragglers
      << " stragglers";
}

class FunctionalDecode : public ::testing::TestWithParam<StrategyParam> {};

TEST_P(FunctionalDecode, MatchesDirectProduct) {
  const auto p = GetParam();
  FunctionalSetup f(12, 6);
  util::Rng trng(123);
  ClusterSpec spec = make_spec(
      workload::controlled_cluster_traces(12, p.stragglers, 0.2, trng));
  EngineConfig cfg;
  cfg.strategy = p.strategy;
  cfg.chunks_per_partition = kChunks;
  cfg.oracle_speeds = true;
  CodedComputeEngine engine(f.job, spec, cfg);
  for (int round = 0; round < 3; ++round) {
    const RoundResult r = engine.run_round(f.x);
    ASSERT_TRUE(r.y.has_value());
    expect_close(*r.y, f.truth);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndStragglers, FunctionalDecode,
    ::testing::Values(StrategyParam{StrategyKind::kMds, 0},
                      StrategyParam{StrategyKind::kMds, 3},
                      StrategyParam{StrategyKind::kS2C2Basic, 0},
                      StrategyParam{StrategyKind::kS2C2Basic, 2},
                      StrategyParam{StrategyKind::kS2C2Basic, 5},
                      StrategyParam{StrategyKind::kS2C2, 0},
                      StrategyParam{StrategyKind::kS2C2, 3},
                      StrategyParam{StrategyKind::kS2C2, 6}));

TEST(Engine, S2C2FasterThanMdsWithoutStragglers) {
  // The paper's headline: with zero stragglers, conventional (n,k)-MDS
  // still pays the 1/k-per-worker cost while S2C2 spreads 1/n.
  util::Rng trng(5);
  const auto traces = workload::controlled_cluster_traces(12, 0, 0.0, trng);

  auto run = [&](StrategyKind s) {
    EngineConfig cfg;
    cfg.strategy = s;
    cfg.chunks_per_partition = kChunks;
    cfg.oracle_speeds = true;
    CodedMatVecJob job = CodedMatVecJob::cost_only(2400, 500, 12, 6, kChunks);
    CodedComputeEngine engine(job, make_spec(traces), cfg);
    return total_latency(engine.run_rounds(5));
  };
  const double mds = run(StrategyKind::kMds);
  const double s2c2 = run(StrategyKind::kS2C2);
  // Ideal ratio 12/6 = 2; comm/decode overheads shave it.
  EXPECT_GT(mds / s2c2, 1.5);
}

TEST(Engine, S2C2DegradesGracefullyWithStragglers) {
  EngineConfig cfg;
  cfg.strategy = StrategyKind::kS2C2;
  cfg.chunks_per_partition = kChunks;
  cfg.oracle_speeds = true;
  double prev = 0.0;
  for (std::size_t s : {0u, 2u, 4u, 6u}) {
    util::Rng trng(6);
    CodedMatVecJob job = CodedMatVecJob::cost_only(2400, 500, 12, 6, kChunks);
    CodedComputeEngine engine(
        job,
        make_spec(workload::controlled_cluster_traces(12, s, 0.0, trng)),
        cfg);
    const double lat = total_latency(engine.run_rounds(3));
    EXPECT_GT(lat, prev);  // monotone in straggler count...
    prev = lat;
  }
  // ...but bounded: with 6 stragglers of a (12,6) code the slowdown is at
  // most ~2x the no-straggler case plus straggler capacity reuse.
}

TEST(Engine, MdsLatencyFlatUpToRedundancyThenExplodes) {
  EngineConfig cfg;
  cfg.strategy = StrategyKind::kMds;
  cfg.chunks_per_partition = kChunks;
  cfg.oracle_speeds = true;
  auto lat_with = [&](std::size_t stragglers) {
    util::Rng trng(7);
    CodedMatVecJob job = CodedMatVecJob::cost_only(2400, 500, 12, 10, kChunks);
    CodedComputeEngine engine(
        job,
        make_spec(
            workload::controlled_cluster_traces(12, stragglers, 0.0, trng)),
        cfg);
    return total_latency(engine.run_rounds(2));
  };
  const double l0 = lat_with(0);
  const double l2 = lat_with(2);
  const double l3 = lat_with(3);
  EXPECT_LT(l2 / l0, 1.3);   // within redundancy: flat
  EXPECT_GT(l3 / l0, 2.5);   // beyond redundancy: waits on a 5x straggler
}

TEST(Engine, MdsWastesStragglersWorkS2C2DoesNot) {
  util::Rng trng(8);
  const auto traces = workload::controlled_cluster_traces(12, 2, 0.2, trng);
  auto waste = [&](StrategyKind s) {
    EngineConfig cfg;
    cfg.strategy = s;
    cfg.chunks_per_partition = kChunks;
    cfg.oracle_speeds = true;
    CodedMatVecJob job = CodedMatVecJob::cost_only(2400, 500, 12, 10, kChunks);
    CodedComputeEngine engine(job, make_spec(traces), cfg);
    engine.run_rounds(5);
    return engine.accounting().mean_wasted_fraction();
  };
  EXPECT_GT(waste(StrategyKind::kMds), 0.05);
  EXPECT_NEAR(waste(StrategyKind::kS2C2), 0.0, 1e-9);
}

TEST(Engine, TimeoutWindowCollectsTiesAtExtendedDeadline) {
  // Regression: with a timeout factor < 1 and identical worker speeds,
  // fewer than k responses beat the initial deadline, so the engine extends
  // it to the k-th fastest response — and every response is *tied* at that
  // extended deadline. The pre-fix collection never re-scanned after the
  // extension: the ties stayed cancelled, their finished work was booked as
  // waste, and timeout_fired reported true spuriously.
  FunctionalSetup f(6, 3);
  EngineConfig cfg;
  cfg.strategy = StrategyKind::kS2C2;
  cfg.chunks_per_partition = kChunks;
  cfg.oracle_speeds = true;
  cfg.timeout_factor = 0.9;
  CodedComputeEngine engine(f.job, make_spec(test::uniform_traces(6)), cfg);
  const RoundResult r = engine.run_round(f.x);
  EXPECT_FALSE(r.stats.timeout_fired);
  EXPECT_EQ(r.stats.reassigned_chunks, 0u);
  EXPECT_DOUBLE_EQ(engine.accounting().total_wasted(), 0.0);
  for (std::size_t w = 0; w < 6; ++w) {
    EXPECT_GT(engine.accounting().worker(w).useful_work, 0.0) << w;
  }
  ASSERT_TRUE(r.y.has_value());
  expect_close(*r.y, f.truth);
}

TEST(Engine, IdleWorkerProbeReflectsPreDecodeWindow) {
  // Regression: idle workers used to be probed at stats.end (post-decode)
  // while every busy worker's observation reflects the pre-decode window.
  // A speed step between coverage and decode-end flipped the straggler
  // flag for the next round.
  FunctionalSetup ref(12, 6);
  EngineConfig cfg;
  cfg.strategy = StrategyKind::kS2C2Basic;
  cfg.chunks_per_partition = kChunks;

  // Reference run (worker 11 idle via a pre-fed slow observation) to learn
  // the round's coverage/end times; worker 11's trace does not affect them.
  auto make_predictor = [] {
    auto p = std::make_unique<predict::LastValuePredictor>(12);
    for (std::size_t w = 0; w < 11; ++w) p->observe(w, 1.0);
    p->observe(11, 0.01);  // flagged straggler => idle in round 1
    return p;
  };
  CodedComputeEngine probe_engine(ref.job, make_spec(test::uniform_traces(12)),
                                  cfg, make_predictor());
  const RoundResult probe = probe_engine.run_round(ref.x);
  ASSERT_LT(probe.stats.coverage, probe.stats.end);  // decode takes time

  // Real run: worker 11's speed collapses after coverage but before decode
  // finishes. The master's probe must see the pre-decode speed (1.0).
  const sim::Time t_step = 0.5 * (probe.stats.coverage + probe.stats.end);
  auto traces = test::uniform_traces(12);
  traces[11] = sim::SpeedTrace::step(t_step, 1.0, 1e-3);
  FunctionalSetup f(12, 6);
  CodedComputeEngine engine(f.job, make_spec(std::move(traces)), cfg,
                            make_predictor());
  const RoundResult r1 = engine.run_round(f.x);
  EXPECT_DOUBLE_EQ(r1.observed_speeds[11], 1.0);
  // With the probe corrected, round 2 un-flags worker 11 and assigns it
  // work (it then crawls at 1e-3 and is cancelled, so its round-2 progress
  // shows up as waste); the skewed probe (1e-3) would have kept it idle.
  const RoundResult r2 = engine.run_round(f.x);
  EXPECT_DOUBLE_EQ(r2.predicted_speeds[11], 1.0);
  EXPECT_GT(engine.accounting().worker(11).wasted_work, 0.0);
}

TEST(Engine, TimeoutRecoversFromSuddenDeath) {
  // Worker 11 dies mid-run; predictions (last-value) won't see it coming,
  // so the timeout must fire, reassign, and still decode correctly.
  FunctionalSetup f(12, 6);
  EngineConfig cfg;
  cfg.strategy = StrategyKind::kS2C2;
  cfg.chunks_per_partition = kChunks;
  CodedComputeEngine engine(f.job, make_spec(test::dying_traces(12, 1)), cfg);
  const RoundResult r = engine.run_round(f.x);
  EXPECT_TRUE(r.stats.timeout_fired);
  EXPECT_GT(r.stats.reassigned_chunks, 0u);
  ASSERT_TRUE(r.y.has_value());
  expect_close(*r.y, f.truth);
}

TEST(Engine, SurvivesRecoveryWorkerDyingMidReassignment) {
  // Cascading failure: worker 3 dies mid-round, its chunks are reassigned,
  // and worker 2 — one of the recovery workers — dies mid-reassignment.
  // The engine must detect the second death, re-plan onto the survivors,
  // and still decode (the single-shot recovery used to throw here).
  const std::size_t n = 4, k = 2;

  // Reference run with only worker 3 dying, to learn when recovery ends;
  // the recovery window is (deadline, coverage], so a death just before
  // coverage lands mid-reassignment.
  FunctionalSetup ref(n, k);
  EngineConfig cfg;
  cfg.strategy = StrategyKind::kS2C2;
  cfg.chunks_per_partition = kChunks;
  cfg.oracle_speeds = true;
  // Slow fleet (1e6 flops): compute dominates transfer, so a death at 90%
  // of the reference coverage time lands inside the recovery compute
  // window rather than in the trailing result transfer.
  const double flops = 1e6;
  CodedComputeEngine ref_engine(
      ref.job, make_spec(test::dying_traces(n, 1), flops), cfg);
  const RoundResult ref_round = ref_engine.run_round(ref.x);
  ASSERT_TRUE(ref_round.stats.timeout_fired);
  const std::size_t first_wave = ref_round.stats.reassigned_chunks;
  ASSERT_GT(first_wave, 0u);

  auto traces = test::dying_traces(n, 1);
  traces[2] = sim::SpeedTrace::step(0.9 * ref_round.stats.coverage, 1.0, 0.0);
  FunctionalSetup f(n, k);
  CodedComputeEngine engine(f.job, make_spec(std::move(traces), flops), cfg);
  const RoundResult r = engine.run_round(f.x);
  EXPECT_TRUE(r.stats.timeout_fired);
  // The re-planned wave reassigns worker 2's unfinished chunks again.
  EXPECT_GT(r.stats.reassigned_chunks, first_wave);
  // Worker 2's partial recovery progress is waste on top of its useful
  // original partition work.
  EXPECT_GT(engine.accounting().worker(2).wasted_work, 0.0);
  EXPECT_GT(engine.accounting().worker(2).useful_work, 0.0);
  ASSERT_TRUE(r.y.has_value());
  expect_close(*r.y, f.truth);
}

TEST(Engine, RecoveredClusterKeepsIterating) {
  // After the death round, subsequent rounds should allocate around the
  // dead worker (observed speed ~ 0) without further timeouts.
  FunctionalSetup f(12, 6);
  EngineConfig cfg;
  cfg.strategy = StrategyKind::kS2C2;
  cfg.chunks_per_partition = kChunks;
  CodedComputeEngine engine(f.job, make_spec(test::dying_traces(12, 1)), cfg);
  (void)engine.run_round(f.x);  // death round
  for (int round = 0; round < 3; ++round) {
    const RoundResult r = engine.run_round(f.x);
    EXPECT_FALSE(r.stats.timeout_fired) << "round " << round;
    ASSERT_TRUE(r.y.has_value());
    expect_close(*r.y, f.truth);
  }
}

TEST(Engine, ClusterFailureWhenTooFewSurvive) {
  FunctionalSetup f(4, 3);
  std::vector<sim::SpeedTrace> traces{
      sim::SpeedTrace::constant(1.0), sim::SpeedTrace::constant(1.0),
      sim::SpeedTrace::constant(0.0), sim::SpeedTrace::constant(0.0)};
  EngineConfig cfg;
  cfg.strategy = StrategyKind::kMds;
  cfg.chunks_per_partition = kChunks;
  CodedComputeEngine engine(f.job, make_spec(std::move(traces)), cfg);
  EXPECT_THROW(engine.run_round(f.x), std::runtime_error);
}

TEST(Engine, OracleBeatsEqualAssumptionUnderSpeedVariation) {
  // General S2C2 with exact speeds must beat basic S2C2 (which treats all
  // non-stragglers as equal) when speeds vary 20% (paper Fig 6 argument).
  util::Rng trng(9);
  const auto traces = workload::controlled_cluster_traces(12, 2, 0.2, trng);
  auto run = [&](StrategyKind s) {
    EngineConfig cfg;
    cfg.strategy = s;
    cfg.chunks_per_partition = kChunks;
    cfg.oracle_speeds = true;
    CodedMatVecJob job = CodedMatVecJob::cost_only(2400, 500, 12, 6, kChunks);
    CodedComputeEngine engine(job, make_spec(traces), cfg);
    return total_latency(engine.run_rounds(5));
  };
  EXPECT_LT(run(StrategyKind::kS2C2), run(StrategyKind::kS2C2Basic));
}

TEST(Engine, MispredictionRateTracked) {
  // Volatile cloud traces with last-value prediction: some rounds must
  // miss by >15%.
  util::Rng rng(10);
  auto series = workload::cloud_speed_corpus(
      12, 60, workload::volatile_cloud_config(), rng);
  ClusterSpec spec = make_spec(
      workload::traces_from_series(series, 0.5));
  spec.worker_flops = 1e7;
  EngineConfig cfg;
  cfg.strategy = StrategyKind::kS2C2;
  cfg.chunks_per_partition = kChunks;
  CodedMatVecJob job = CodedMatVecJob::cost_only(2400, 500, 12, 10, kChunks);
  CodedComputeEngine engine(job, spec, cfg);
  engine.run_rounds(30);
  EXPECT_GT(engine.misprediction_rate(), 0.01);
  EXPECT_LE(engine.misprediction_rate(), 1.0);
  EXPECT_GE(engine.timeout_rate(), 0.0);
}

TEST(Engine, MispredictionRateCountsRounds) {
  // One worker of twelve runs at half the speed an equal-speed predictor
  // assumes, every round. Every round therefore has a > 15% miss, so the
  // paper's per-round rate is 1 (a per-worker-round count would give 1/12).
  auto traces = test::uniform_traces(12);
  traces[0] = sim::SpeedTrace::constant(0.5);
  EngineConfig cfg;
  cfg.strategy = StrategyKind::kS2C2;
  cfg.chunks_per_partition = kChunks;
  CodedMatVecJob job = CodedMatVecJob::cost_only(2400, 500, 12, 10, kChunks);
  CodedComputeEngine engine(job, make_spec(traces), cfg,
                            std::make_unique<predict::EqualSpeedPredictor>());
  (void)engine.run_rounds(4);
  EXPECT_EQ(engine.misprediction_rate(), 1.0);
}

TEST(Engine, SparseOperatorFunctionalDecode) {
  util::Rng rng(11);
  std::vector<linalg::Triplet> trips;
  for (int i = 0; i < 800; ++i) {
    trips.push_back({static_cast<std::size_t>(rng.uniform_int(0, 239)),
                     static_cast<std::size_t>(rng.uniform_int(0, 29)),
                     rng.normal()});
  }
  const linalg::CsrMatrix a(240, 30, trips);
  CodedMatVecJob job(a, 12, 6, kChunks);
  linalg::Vector x(30);
  for (auto& v : x) v = rng.normal();
  const auto truth = a.matvec(x);

  util::Rng trng(12);
  EngineConfig cfg;
  cfg.strategy = StrategyKind::kS2C2;
  cfg.chunks_per_partition = kChunks;
  cfg.oracle_speeds = true;
  CodedComputeEngine engine(
      job,
      make_spec(workload::controlled_cluster_traces(12, 2, 0.2, trng)),
      cfg);
  const RoundResult r = engine.run_round(x);
  ASSERT_TRUE(r.y.has_value());
  expect_close(*r.y, truth);
}

TEST(Engine, ClockAdvancesAcrossRounds) {
  CodedMatVecJob job = CodedMatVecJob::cost_only(240, 50, 4, 2, kChunks);
  EngineConfig cfg;
  cfg.chunks_per_partition = kChunks;
  cfg.oracle_speeds = true;
  CodedComputeEngine engine(job, ClusterSpec::uniform(4), cfg);
  const auto r = engine.run_rounds(3);
  EXPECT_GT(r[1].stats.start, r[0].stats.start);
  EXPECT_DOUBLE_EQ(r[1].stats.start, r[0].stats.end);
  EXPECT_DOUBLE_EQ(engine.now(), r[2].stats.end);
}

TEST(Engine, RunRoundsSurfacesDecodedProductInFunctionalMode) {
  // Regression: run_rounds used to drop the decoded product even when the
  // job was functional, so loop-based convergence checks silently ran
  // latency-only. With the input vector passed through, every round must
  // decode — and decode correctly.
  FunctionalSetup f(6, 4);
  EngineConfig cfg;
  cfg.chunks_per_partition = kChunks;
  cfg.oracle_speeds = true;
  CodedComputeEngine engine(f.job, make_spec(test::uniform_traces(6)), cfg);
  const auto rounds = engine.run_rounds(3, f.x);
  ASSERT_EQ(rounds.size(), 3u);
  for (const RoundResult& r : rounds) {
    ASSERT_TRUE(r.y.has_value());
    expect_close(*r.y, f.truth, 1e-9);
  }
  // Latency-only default stays latency-only.
  const auto bare = engine.run_rounds(2);
  for (const RoundResult& r : bare) EXPECT_FALSE(r.y.has_value());
}

}  // namespace
}  // namespace s2c2::core
