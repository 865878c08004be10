// Tests for the two uncoded baselines: LATE-style replication and
// Charm++-style over-decomposition.
#include <gtest/gtest.h>

#include "src/core/overdecomp_engine.h"
#include "src/core/replication_engine.h"
#include "src/util/rng.h"
#include "src/workload/trace_gen.h"
#include "tests/test_util.h"

namespace s2c2::core {
namespace {

using test::make_spec;

TEST(Replication, PlacementHasRReplicasPerPartition) {
  ReplicationConfig cfg;
  cfg.replication = 3;
  ReplicationEngine engine(1200, 100, ClusterSpec::uniform(12), cfg);
  for (std::size_t p = 0; p < 12; ++p) {
    const auto& holders = engine.placement()[p];
    EXPECT_EQ(holders.size(), 3u);
    EXPECT_EQ(holders[0], p);  // primary
    // Distinct holders.
    EXPECT_NE(holders[1], holders[0]);
    EXPECT_NE(holders[2], holders[0]);
    EXPECT_NE(holders[2], holders[1]);
  }
}

TEST(Replication, NoStragglersRunsAtBaseline) {
  util::Rng trng(1);
  ReplicationEngine engine(
      12000, 100, make_spec(workload::controlled_cluster_traces(12, 0, 0.0, trng)),
      {});
  const auto r = engine.run_round();
  EXPECT_GT(r.stats.latency(), 0.0);
  EXPECT_EQ(r.stats.data_moves, 0u);
}

TEST(Replication, StragglersTriggerSpeculationAndSlowdowns) {
  auto latency_with = [&](std::size_t stragglers) {
    util::Rng trng(2);
    ReplicationEngine engine(
        12000, 100,
        make_spec(
            workload::controlled_cluster_traces(12, stragglers, 0.0, trng)),
        {});
    return engine.run_rounds(3).back().stats.latency();
  };
  const double l0 = latency_with(0);
  const double l2 = latency_with(2);
  EXPECT_GT(l2, 1.5 * l0);  // speculation restarts cost ~a task
}

TEST(Replication, ManyStragglersDegradeSuperLinearly) {
  auto latency_with = [&](std::size_t stragglers) {
    util::Rng trng(3);
    ReplicationEngine engine(
        12000, 100,
        make_spec(
            workload::controlled_cluster_traces(12, stragglers, 0.0, trng)),
        {});
    return engine.run_rounds(2).back().stats.latency();
  };
  const double l0 = latency_with(0);
  const double l5 = latency_with(5);
  EXPECT_GT(l5 / l0, 2.0);
}

TEST(Replication, SpeculationWasteIsAccounted) {
  util::Rng trng(4);
  ReplicationEngine engine(
      12000, 100,
      make_spec(workload::controlled_cluster_traces(12, 2, 0.0, trng)), {});
  engine.run_rounds(3);
  EXPECT_GT(engine.accounting().total_wasted(), 0.0);
}

TEST(Replication, AllDeadThrows) {
  std::vector<sim::SpeedTrace> traces(4, sim::SpeedTrace::constant(0.0));
  ReplicationEngine engine(400, 10, make_spec(std::move(traces)), {});
  EXPECT_THROW(engine.run_round(), std::runtime_error);
}

TEST(OverDecomp, StableSpeedsNoMigrationsAfterWarmup) {
  util::Rng trng(5);
  // 20% spread, constant speeds: after round 1 the assignment is learned
  // and stays put.
  OverDecompositionEngine engine(
      12000, 100,
      make_spec(workload::controlled_cluster_traces(10, 0, 0.2, trng)), {});
  engine.run_rounds(2);  // warmup: learn speeds
  const std::size_t moves_before = engine.total_migrations();
  engine.run_rounds(5);
  EXPECT_EQ(engine.total_migrations(), moves_before);
}

TEST(OverDecomp, VolatileSpeedsForceMigrations) {
  util::Rng rng(6);
  auto series = workload::cloud_speed_corpus(
      10, 80, workload::volatile_cloud_config(), rng);
  ClusterSpec spec = make_spec(workload::traces_from_series(series, 0.5));
  OverDecompositionEngine engine(12000, 100, spec, {});
  engine.run_rounds(25);
  EXPECT_GT(engine.total_migrations(), 0u);
}

TEST(OverDecomp, StorageGrowsWithMigrations) {
  util::Rng rng(7);
  auto series = workload::cloud_speed_corpus(
      10, 80, workload::volatile_cloud_config(), rng);
  ClusterSpec spec = make_spec(workload::traces_from_series(series, 0.5));
  OverDecompositionEngine engine(12000, 100, spec, {});
  std::size_t initial = 0;
  for (std::size_t w = 0; w < 10; ++w) initial += engine.storage_bytes(w);
  engine.run_rounds(25);
  std::size_t final_storage = 0;
  for (std::size_t w = 0; w < 10; ++w) {
    final_storage += engine.storage_bytes(w);
  }
  EXPECT_GE(final_storage, initial);
  if (engine.total_migrations() > 0) {
    EXPECT_GT(final_storage, initial);
  }
}

TEST(OverDecomp, ReplicationFactorControlsInitialStorage) {
  OverDecompConfig thin;
  thin.replication_factor = 1.0;
  OverDecompConfig fat;
  fat.replication_factor = 1.42;
  OverDecompositionEngine a(12000, 100, ClusterSpec::uniform(10), thin);
  OverDecompositionEngine b(12000, 100, ClusterSpec::uniform(10), fat);
  std::size_t sa = 0, sb = 0;
  for (std::size_t w = 0; w < 10; ++w) {
    sa += a.storage_bytes(w);
    sb += b.storage_bytes(w);
  }
  EXPECT_GT(sb, sa);
  EXPECT_NEAR(static_cast<double>(sb) / static_cast<double>(sa), 1.42, 0.06);
}

TEST(OverDecomp, OracleTracksProportionalShares) {
  // 2:1 speeds with oracle predictions: fast worker should carry ~2x tasks,
  // making the makespan ~ total/Σspeed.
  std::vector<sim::SpeedTrace> traces{sim::SpeedTrace::constant(1.0),
                                      sim::SpeedTrace::constant(0.5)};
  OverDecompConfig cfg;
  cfg.oracle_speeds = true;
  OverDecompositionEngine engine(1200, 100, make_spec(std::move(traces)), cfg);
  const auto r = engine.run_rounds(3);
  // Ideal makespan: work = 2*1200*100/1e7 = 0.024 unit-seconds over total
  // speed 1.5 -> 0.016s, plus comm and integer task rounding.
  EXPECT_NEAR(r.back().stats.latency(), 0.016, 0.004);
}

TEST(OverDecomp, CountsMispredictedRoundsByThePaperRule) {
  // The coded engines' per-round rule: one worker of ten runs at half the
  // speed an equal-speed predictor assumes, so every round misses by more
  // than 15%; an oracle on constant speeds never misses.
  auto traces = test::uniform_traces(10);
  traces[0] = sim::SpeedTrace::constant(0.5);
  OverDecompositionEngine equal(12000, 100, make_spec(traces), {},
                                std::make_unique<predict::EqualSpeedPredictor>());
  (void)equal.run_rounds(4);
  EXPECT_EQ(equal.misprediction_rate(), 1.0);

  OverDecompConfig oracle;
  oracle.oracle_speeds = true;
  OverDecompositionEngine exact(12000, 100, make_spec(traces), oracle);
  (void)exact.run_rounds(4);
  EXPECT_EQ(exact.misprediction_rate(), 0.0);
}

// ---- product forwarding (the run_round(x) unification) -------------------
// The uncoded baselines must forward the exact product in functional mode,
// so job-driver convergence loops drive every strategy through one code
// path instead of strategy-specific latency-only shims. Mirrors the PR 3
// CodedComputeEngine::run_rounds regression: an engine that silently drops
// the product turns convergence checks into latency measurements.

TEST(Replication, FunctionalRoundForwardsExactProduct) {
  util::Rng rng(11);
  const auto a = linalg::Matrix::random_uniform(96, 24, rng);
  linalg::Vector x(24);
  for (auto& v : x) v = rng.normal();
  const linalg::Vector truth = a.matvec(x);

  ReplicationEngine engine(
      a.rows(), a.cols(), ClusterSpec::uniform(12), {},
      [&a](const linalg::Matrix& in) { return a.matmat(in); });
  // Every round of a functional loop must carry the product (run_rounds
  // would silently go latency-only otherwise).
  const auto rounds = engine.run_rounds(3, x);
  ASSERT_EQ(rounds.size(), 3u);
  for (const RoundResult& r : rounds) {
    ASSERT_TRUE(r.y.has_value());
    EXPECT_EQ(linalg::max_abs_diff(*r.y, truth), 0.0);  // exact, not decoded
  }
  // Latency-only rounds stay latency-only.
  EXPECT_FALSE(engine.run_round().y.has_value());
}

TEST(OverDecomp, FunctionalRoundForwardsExactProduct) {
  util::Rng rng(12);
  const auto a = linalg::Matrix::random_uniform(80, 20, rng);
  linalg::Vector x(20);
  for (auto& v : x) v = rng.normal();
  const linalg::Vector truth = a.matvec(x);

  OverDecompConfig cfg;
  cfg.oracle_speeds = true;
  OverDecompositionEngine engine(
      a.rows(), a.cols(), ClusterSpec::uniform(10), cfg, nullptr,
      [&a](const linalg::Matrix& in) { return a.matmat(in); });
  const auto rounds = engine.run_rounds(2, x);
  for (const RoundResult& r : rounds) {
    ASSERT_TRUE(r.y.has_value());
    EXPECT_EQ(linalg::max_abs_diff(*r.y, truth), 0.0);
  }
  EXPECT_FALSE(engine.run_round().y.has_value());
}

// ---- block product forwarding (the multi-RHS data path) ------------------
// In block rounds the baselines must forward the exact b-column product in
// one DirectMultiply call, with each column bitwise equal to the matvec on
// that column — not a silent column-at-a-time degradation.

TEST(Replication, BlockRoundForwardsExactBlockProduct) {
  util::Rng rng(13);
  const auto a = linalg::Matrix::random_uniform(96, 24, rng);
  const auto x_block = linalg::Matrix::random_normal(24, 3, rng);

  ReplicationEngine engine(
      a.rows(), a.cols(), ClusterSpec::uniform(12), {},
      [&a](const linalg::Matrix& in) { return a.matmat(in); });
  ASSERT_TRUE(engine.supports_block_rounds());
  const RoundResult r = engine.run_round_block(x_block, 3);
  ASSERT_TRUE(r.y_block.has_value());
  ASSERT_EQ(r.y_block->rows(), a.rows());
  ASSERT_EQ(r.y_block->cols(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    linalg::Vector col(a.cols());
    for (std::size_t i = 0; i < a.cols(); ++i) col[i] = x_block(i, j);
    const linalg::Vector truth = a.matvec(col);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      EXPECT_EQ((*r.y_block)(i, j), truth[i]);  // bitwise, not approximate
    }
  }
}

TEST(Replication, BlockRoundWidthOneMatchesClassicRound) {
  util::Rng rng(14);
  const auto a = linalg::Matrix::random_uniform(80, 20, rng);
  linalg::Vector x(20);
  for (auto& v : x) v = rng.normal();
  linalg::Matrix panel(20, 1, {x.begin(), x.end()});

  const auto direct = [&a](const linalg::Matrix& in) { return a.matmat(in); };
  ReplicationEngine classic(a.rows(), a.cols(), ClusterSpec::uniform(12), {},
                            direct);
  ReplicationEngine block(a.rows(), a.cols(), ClusterSpec::uniform(12), {},
                          direct);
  const RoundResult rc = classic.run_round(x);
  const RoundResult rb = block.run_round_block(panel, 1);
  ASSERT_TRUE(rc.y.has_value());
  ASSERT_TRUE(rb.y.has_value());
  EXPECT_EQ(*rc.y, *rb.y);  // bitwise: width 1 routes through run_round
  EXPECT_EQ(rc.stats.end, rb.stats.end);
}

TEST(OverDecomp, BlockRoundForwardsExactBlockProduct) {
  util::Rng rng(15);
  const auto a = linalg::Matrix::random_uniform(80, 20, rng);
  const auto x_block = linalg::Matrix::random_normal(20, 4, rng);

  OverDecompConfig cfg;
  cfg.oracle_speeds = true;
  OverDecompositionEngine engine(
      a.rows(), a.cols(), ClusterSpec::uniform(10), cfg, nullptr,
      [&a](const linalg::Matrix& in) { return a.matmat(in); });
  ASSERT_TRUE(engine.supports_block_rounds());
  const RoundResult r = engine.run_round_block(x_block, 4);
  ASSERT_TRUE(r.y_block.has_value());
  const linalg::Matrix truth = a.matmat(x_block);
  EXPECT_EQ(truth.max_abs_diff(*r.y_block), 0.0);
  EXPECT_FALSE(r.y.has_value());
}

TEST(Baselines, BlockRoundScalesAccountedWorkLinearly) {
  // Cost-only block round at b = 4 vs b = 1 on identical constant-speed
  // clusters: per-round useful work must scale exactly 4x (binary scaling
  // commutes with the accounting sums bit for bit).
  std::vector<sim::SpeedTrace> t1, t4;
  for (std::size_t w = 0; w < 8; ++w) {
    t1.push_back(sim::SpeedTrace::constant(1.0 + 0.01 * double(w)));
    t4.push_back(sim::SpeedTrace::constant(1.0 + 0.01 * double(w)));
  }
  ReplicationEngine e1(1200, 100, make_spec(std::move(t1)), {});
  ReplicationEngine e4(1200, 100, make_spec(std::move(t4)), {});
  e1.run_round_block({}, 1);
  e4.run_round_block({}, 4);
  const double u1 = e1.accounting().total_useful();
  const double u4 = e4.accounting().total_useful();
  EXPECT_GT(u1, 0.0);
  EXPECT_EQ(u4, 4.0 * u1);
}

TEST(Baselines, CostOnlyEngineIgnoresInputVector) {
  // Without a functional operator an input vector cannot produce a
  // product; the round must stay latency-only rather than fabricate one.
  ReplicationEngine engine(1200, 100, ClusterSpec::uniform(12), {});
  linalg::Vector x(100, 1.0);
  EXPECT_FALSE(engine.run_round(x).y.has_value());
}

}  // namespace
}  // namespace s2c2::core
