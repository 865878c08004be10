// Fault-injection suite: deaths, cascades, controlled mis-prediction, and
// the placement cliff — the failure paths a production deployment hits.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/core/engine.h"
#include "src/core/engine_factory.h"
#include "src/core/overdecomp_engine.h"
#include "src/core/replication_engine.h"
#include "src/harness/scenario_matrix.h"
#include "src/predict/predictors.h"
#include "src/util/rng.h"
#include "src/workload/trace_gen.h"
#include "tests/test_util.h"

namespace s2c2::core {
namespace {

using test::kChunks;

ClusterSpec spec_from(std::vector<sim::SpeedTrace> traces) {
  return test::make_spec(std::move(traces));
}

struct Functional : test::FunctionalMatVec {
  Functional(std::size_t n, std::size_t k) : FunctionalMatVec(n, k) {}

  void expect_decode(const RoundResult& r, double tol = 1e-6) const {
    ASSERT_TRUE(r.y.has_value());
    test::expect_close(*r.y, truth, tol);
  }
};

TEST(FaultInjection, TwoSimultaneousDeathsWithinRedundancy) {
  Functional f(12, 6);
  EngineConfig cfg;
  cfg.strategy = StrategyKind::kS2C2;
  cfg.chunks_per_partition = kChunks;
  CodedComputeEngine engine(f.job, spec_from(test::dying_traces(12, 2)), cfg);
  const auto r = engine.run_round(f.x);
  EXPECT_TRUE(r.stats.timeout_fired);
  f.expect_decode(r);
}

TEST(FaultInjection, StaggeredDeathsAcrossRounds) {
  Functional f(12, 6);
  std::vector<sim::SpeedTrace> traces;
  for (int w = 0; w < 12; ++w) {
    traces.push_back(sim::SpeedTrace::constant(1.0));
  }
  // Workers die one by one across the first few rounds (round length is
  // a few hundred microseconds at this scale).
  traces[3] = sim::SpeedTrace::step(1e-3, 1.0, 0.0);
  traces[7] = sim::SpeedTrace::step(2e-3, 1.0, 0.0);
  traces[9] = sim::SpeedTrace::step(3e-3, 1.0, 0.0);
  EngineConfig cfg;
  cfg.strategy = StrategyKind::kS2C2;
  cfg.chunks_per_partition = kChunks;
  CodedComputeEngine engine(f.job, spec_from(std::move(traces)), cfg);
  for (int round = 0; round < 10; ++round) {
    const auto r = engine.run_round(f.x);
    f.expect_decode(r);
  }
  // Three workers are gone; the rest must carry an exact-6 coverage.
  EXPECT_GT(engine.timeout_rate(), 0.0);
}

TEST(FaultInjection, DeathBeyondRedundancyEventuallyThrows) {
  Functional f(6, 4);
  std::vector<sim::SpeedTrace> traces;
  for (int w = 0; w < 3; ++w) traces.push_back(sim::SpeedTrace::constant(1.0));
  for (int w = 0; w < 3; ++w) {
    traces.push_back(sim::SpeedTrace::step(1e-4, 1.0, 0.0));
  }
  EngineConfig cfg;
  cfg.strategy = StrategyKind::kS2C2;
  cfg.chunks_per_partition = kChunks;
  CodedComputeEngine engine(f.job, spec_from(std::move(traces)), cfg);
  EXPECT_THROW((void)engine.run_round(f.x), std::runtime_error);
}

TEST(FaultInjection, RecoveryWorkerSlowButAliveStillDecodes) {
  // The reassignment lands partly on a slow-but-alive worker: the round is
  // long but correct.
  Functional f(6, 4);
  std::vector<sim::SpeedTrace> traces;
  traces.push_back(sim::SpeedTrace::constant(1.0));
  traces.push_back(sim::SpeedTrace::constant(1.0));
  traces.push_back(sim::SpeedTrace::constant(0.3));
  traces.push_back(sim::SpeedTrace::constant(1.0));
  traces.push_back(sim::SpeedTrace::constant(1.0));
  traces.push_back(sim::SpeedTrace::step(1e-4, 1.0, 0.0));  // dies
  EngineConfig cfg;
  cfg.strategy = StrategyKind::kS2C2;
  cfg.chunks_per_partition = kChunks;
  CodedComputeEngine engine(f.job, spec_from(std::move(traces)), cfg);
  const auto r = engine.run_round(f.x);
  EXPECT_TRUE(r.stats.timeout_fired);
  f.expect_decode(r);
}

TEST(FaultInjection, NoisyPredictorRaisesTimeoutRateMonotonically) {
  // Controlled mis-prediction sweep: more corrupted predictions -> more
  // timeout recoveries, never a wrong result.
  Functional f(10, 7);
  double prev_rate = -1.0;
  for (const double corrupt : {0.0, 0.4, 0.9}) {
    std::vector<sim::SpeedTrace> traces;
    for (int w = 0; w < 10; ++w) {
      traces.push_back(sim::SpeedTrace::constant(w % 2 == 0 ? 1.0 : 0.7));
    }
    CodedMatVecJob job(f.a, 10, 7, kChunks);
    EngineConfig cfg;
    cfg.strategy = StrategyKind::kS2C2;
    cfg.chunks_per_partition = kChunks;
    auto inner = std::make_unique<predict::LastValuePredictor>(10);
    auto noisy = std::make_unique<test::NoisyPredictor>(
        std::move(inner), corrupt, 0.6, 99);
    CodedComputeEngine engine(job, spec_from(std::move(traces)), cfg,
                              std::move(noisy));
    for (int round = 0; round < 10; ++round) {
      const auto r = engine.run_round(f.x);
      ASSERT_TRUE(r.y.has_value());
    }
    EXPECT_GE(engine.timeout_rate(), prev_rate - 0.15)
        << "corrupt=" << corrupt;
    prev_rate = engine.timeout_rate();
  }
  EXPECT_GT(prev_rate, 0.3);  // 90% corruption must hurt
}

TEST(FaultInjection, ReplicationPlacementCliffWithStrictLocality) {
  // Round-robin placement + contiguous stragglers: at stragglers ==
  // replication factor, one partition's holders are all stragglers and
  // strict locality pins the task to a 5x node (the Fig 1 cliff).
  auto latency = [&](std::size_t stragglers) {
    util::Rng rng(4);
    ReplicationConfig cfg;
    cfg.allow_data_movement = false;
    ReplicationEngine engine(
        12000, 100,
        spec_from(workload::controlled_cluster_traces(12, stragglers, 0.0,
                                                      rng)),
        cfg);
    return engine.run_round().stats.latency();
  };
  const double l2 = latency(2);
  const double l3 = latency(3);
  EXPECT_GT(l3, 2.0 * l2);  // the cliff
}

TEST(FaultInjection, ReplicationWithMovementAvoidsTheCliff) {
  auto latency = [&](bool movement) {
    util::Rng rng(4);
    ReplicationConfig cfg;
    cfg.allow_data_movement = movement;
    ReplicationEngine engine(
        12000, 100,
        spec_from(workload::controlled_cluster_traces(12, 3, 0.0, rng)),
        cfg);
    return engine.run_round().stats.latency();
  };
  EXPECT_LT(latency(true), latency(false));
}

TEST(FaultInjection, OverDecompDeadWorkerThrows) {
  std::vector<sim::SpeedTrace> traces(4, sim::SpeedTrace::constant(1.0));
  traces[2] = sim::SpeedTrace::constant(0.0);
  OverDecompConfig cfg;
  cfg.oracle_speeds = true;
  OverDecompositionEngine engine(1200, 40, spec_from(std::move(traces)), cfg);
  // Oracle sees speed 0 -> quota 0 -> partitions migrate off the dead
  // node; the round completes.
  EXPECT_NO_THROW((void)engine.run_round());
  EXPECT_GT(engine.total_migrations(), 0u);
}

TEST(FaultInjection, SameSeedYieldsIdenticalEventLog) {
  // Determinism under failure: every engine, run twice from the same
  // scenario seed on volatile traces, must replay a bit-identical
  // per-round event log (latencies, waste, fingerprint).
  harness::ScenarioConfig cfg;
  cfg.workers = 12;
  cfg.k = 10;
  cfg.stragglers = 3;
  cfg.rounds = 5;
  cfg.seed = 99;
  cfg.functional = true;
  for (const auto e : harness::all_engines()) {
    const auto a =
        harness::run_cell(cfg, e, harness::WorkloadKind::kLogisticRegression,
                          harness::TraceProfile::kVolatileCloud);
    const auto b =
        harness::run_cell(cfg, e, harness::WorkloadKind::kLogisticRegression,
                          harness::TraceProfile::kVolatileCloud);
    ASSERT_EQ(a.round_latencies.size(), b.round_latencies.size());
    for (std::size_t r = 0; r < a.round_latencies.size(); ++r) {
      EXPECT_EQ(a.round_latencies[r], b.round_latencies[r])
          << core::strategy_name(e) << " round " << r;
    }
    EXPECT_EQ(a.total_useful, b.total_useful) << core::strategy_name(e);
    EXPECT_EQ(a.total_wasted, b.total_wasted) << core::strategy_name(e);
    EXPECT_EQ(a.fingerprint(), b.fingerprint()) << core::strategy_name(e);
  }
}

TEST(FaultInjection, DeathRecoveryIsDeterministic) {
  // The timeout/reassignment path itself must be replayable: two engines
  // over identical death traces produce identical round latencies.
  auto run = [] {
    Functional f(12, 6);
    EngineConfig cfg;
    cfg.strategy = StrategyKind::kS2C2;
    cfg.chunks_per_partition = kChunks;
    CodedComputeEngine engine(f.job, spec_from(test::dying_traces(12, 2)),
                              cfg);
    std::vector<double> latencies;
    for (int round = 0; round < 5; ++round) {
      latencies.push_back(engine.run_round(f.x).stats.latency());
    }
    return latencies;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

// A cost-only engine of `kind` on a 12-worker cluster whose every coded
// geometry decodes from any 4 responders: k = 4 for the MDS family and
// LT, a = 2 (a² = 4) for poly.
std::unique_ptr<StrategyEngine> quorum4_engine(
    StrategyKind kind, std::vector<sim::SpeedTrace> traces) {
  EngineParams p;
  p.cluster = spec_from(std::move(traces));
  p.rows = 240;
  p.cols = 24;
  p.k = 4;
  p.a_blocks = 2;
  p.chunks_per_partition = 12;
  return make_engine(kind, std::move(p));
}

// The cluster-failure text one round throws, or "" when it completes.
std::string round_error(StrategyEngine& engine) {
  try {
    (void)engine.run_round();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(FaultInjection, QuorumFailureMessagePerCodedKind) {
  // Only workers 0 and 1 ever respond — fewer than any kind's quorum.
  // Failed scenario cells hash their error text, so each kind's exact
  // message is wire format.
  std::vector<sim::SpeedTrace> traces(12, sim::SpeedTrace::constant(0.0));
  traces[0] = sim::SpeedTrace::constant(1.0);
  traces[1] = sim::SpeedTrace::constant(1.0);
  const char* const kMds = "cluster failure: fewer than k workers can respond";
  const char* const kPoly = "cluster failure: fewer than a^2 responders";
  const std::vector<std::pair<StrategyKind, const char*>> expected = {
      {StrategyKind::kS2C2, kMds},
      {StrategyKind::kS2C2Basic, kMds},
      {StrategyKind::kMds, kMds},
      {StrategyKind::kAgc, kMds},
      {StrategyKind::kPoly, kPoly},
      {StrategyKind::kPolyConventional, kPoly},
      {StrategyKind::kLt,
       "cluster failure: too few responders to reach the LT decode "
       "threshold"},
  };
  std::size_t coded = 0;
  for (const StrategyKind k : all_strategy_kinds()) {
    if (strategy_is_coded(k)) ++coded;
  }
  ASSERT_EQ(expected.size(), coded) << "a coded kind has no pinned message";
  for (const auto& [kind, what] : expected) {
    EXPECT_EQ(round_error(*quorum4_engine(kind, traces)), what)
        << strategy_name(kind);
  }
}

// Worker 11 never responds, so the §4.3 timeout fires and its chunks are
// reassigned; workers 1-10 die right after their base response, while
// the recovery wave they are handed is in flight. Worker 0 survives.
// Deaths are timed off `kind`'s all-alive round so they land between the
// base responses and the recovery wave on either geometry.
std::vector<sim::SpeedTrace> recovery_death_traces(StrategyKind kind) {
  const sim::Time base_done =
      quorum4_engine(kind, test::uniform_traces(12))->run_round()
          .stats.coverage;
  std::vector<sim::SpeedTrace> traces = test::uniform_traces(12);
  for (std::size_t w = 1; w < 11; ++w) {
    traces[w] = sim::SpeedTrace::step(1.05 * base_done, 1.0, 0.0);
  }
  traces[11] = sim::SpeedTrace::constant(0.0);
  return traces;
}

TEST(FaultInjection, PolyRecoveryDeathIsAClusterFailure) {
  // The poly engine treats a recovery worker's death as unrecoverable.
  const auto engine = quorum4_engine(
      StrategyKind::kPoly, recovery_death_traces(StrategyKind::kPoly));
  EXPECT_EQ(round_error(*engine), "cluster failure during poly recovery");
}

TEST(FaultInjection, S2C2SurvivesARecoveryDeath) {
  // The same death on s2c2 cascades: the dead recovery workers' chunks
  // re-plan in later waves until worker 0 covers them.
  const auto engine = quorum4_engine(
      StrategyKind::kS2C2, recovery_death_traces(StrategyKind::kS2C2));
  const RoundResult r = engine->run_round();
  EXPECT_TRUE(r.stats.timeout_fired);
  // Worker 11's 4 chunks are the only deficient ones: any reassignment
  // beyond them is a later wave re-planning a dead recovery worker's.
  EXPECT_GT(r.stats.reassigned_chunks, 4u);
}

TEST(FaultInjection, FrozenPredictorMissesRegimeChange) {
  // A node slows permanently after warmup: the frozen predictor keeps
  // over-assigning it, so timeouts persist; last-value recovers.
  auto timeout_rate = [&](bool frozen) {
    std::vector<sim::SpeedTrace> traces;
    for (int w = 0; w < 9; ++w) {
      traces.push_back(sim::SpeedTrace::constant(1.0));
    }
    traces.push_back(sim::SpeedTrace::step(0.2, 1.0, 0.3));
    CodedMatVecJob job = CodedMatVecJob::cost_only(2400, 500, 10, 7, kChunks);
    EngineConfig cfg;
    cfg.strategy = StrategyKind::kS2C2;
    cfg.chunks_per_partition = kChunks;
    std::unique_ptr<predict::SpeedPredictor> pred;
    if (frozen) {
      pred = std::make_unique<predict::FrozenSpeedPredictor>(10, 3);
    } else {
      pred = std::make_unique<predict::LastValuePredictor>(10);
    }
    CodedComputeEngine engine(job, spec_from(std::move(traces)), cfg,
                              std::move(pred));
    engine.run_rounds(20);
    return engine.timeout_rate();
  };
  EXPECT_GT(timeout_rate(true), timeout_rate(false) + 0.2);
}

}  // namespace
}  // namespace s2c2::core
