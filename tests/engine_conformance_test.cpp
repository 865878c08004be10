// Cross-engine conformance suite: the contracts EVERY strategy behind
// core::make_engine must satisfy, parameterized over registered_strategies()
// / harness::extended_engines() so a newly registered kind is under
// contract the day it lands — no hand-enumerated kind lists to forget to
// extend. Covers (per ISSUE/ROADMAP):
//   * seeded byte-identical determinism across repeat runs and --jobs
//     shardings of the scenario matrix;
//   * exact k-coverage of useful work (threshold-coverage for the
//     rateless lt kind);
//   * accounting conservation — per worker, useful + wasted never exceeds
//     the busy window (idle = busy - useful - wasted >= 0);
//   * run_rounds product forwarding against the direct product at 1e-9;
//   * block-round width-1 identity, or a clean supports_block_rounds()
//     == false rejection for width > 1;
//   * agc's degradation to conventional MDS under an oracle predictor;
//   * pinned, distinct engine-axis wire ids;
//   * decode-context cache warming for the coded kinds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/coding/poly_code.h"
#include "src/core/engine.h"
#include "src/core/engine_factory.h"
#include "src/harness/matrix_runner.h"
#include "src/harness/scenario_matrix.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace s2c2 {
namespace {

using core::EngineParams;
using core::StrategyKind;
using core::strategy_name;

/// Functional engine inputs shared by the engine-level contracts: a seeded
/// dense 240 x `cols` operator (30 by default) on a 12-worker cluster,
/// k = 10, 12 chunks per partition — small enough that the whole
/// registered lineup runs in milliseconds, large enough that every coded
/// geometry is non-trivial.
struct FunctionalRig {
  explicit FunctionalRig(std::size_t cols = 30)
      : rng(11), a(linalg::Matrix::random_uniform(240, cols, rng)) {
    x.resize(a.cols());
    for (auto& v : x) v = rng.normal();
    truth = a.matvec(x);
  }

  [[nodiscard]] EngineParams params(
      std::vector<sim::SpeedTrace> traces =
          test::uniform_traces(12)) const {
    EngineParams p;
    p.cluster = test::make_spec(std::move(traces));
    p.dense = &a;
    p.k = 10;
    p.chunks_per_partition = 12;
    p.a_blocks = 3;
    p.oracle_speeds = true;
    return p;
  }

  util::Rng rng;
  linalg::Matrix a;
  linalg::Vector x;
  linalg::Vector truth;
};

/// The poly kinds compute a bilinear Hessian, not a matvec panel; contracts
/// that need a functional input feed them the Hessian shape instead.
bool is_poly(StrategyKind k) {
  return k == StrategyKind::kPoly || k == StrategyKind::kPolyConventional;
}

/// Functional params for any kind: the matvec rig for the panel kinds, the
/// Hessian operator for poly (whose functional mode needs d / a_blocks
/// divisible by the chunk count — 24 / 3 = 8 here, so 8 chunks).
EngineParams functional_params(StrategyKind k, const FunctionalRig& rig,
                               const test::FunctionalHessian& hess) {
  EngineParams p = rig.params();
  if (is_poly(k)) {
    p.dense = &hess.a;
    p.chunks_per_partition = 8;
  }
  return p;
}

TEST(EngineConformance, DeterministicAcrossRepeatsAndJobsShardings) {
  // Two halves of the determinism contract, per extended-engine kind:
  // run_cell is a pure function of its arguments (repeat runs are
  // byte-identical down to the fingerprint over every round's exact
  // latency bits), and the matrix runner's sharding is invisible (the same
  // axes at --jobs 1 and --jobs 3 hash identically).
  harness::ScenarioConfig cfg;
  cfg.functional = true;
  cfg.rounds = 3;
  for (const StrategyKind e : harness::extended_engines()) {
    const auto once = harness::run_cell(
        cfg, e, harness::WorkloadKind::kLogisticRegression,
        harness::TraceProfile::kControlledStragglers);
    const auto again = harness::run_cell(
        cfg, e, harness::WorkloadKind::kLogisticRegression,
        harness::TraceProfile::kControlledStragglers);
    EXPECT_FALSE(once.failed) << strategy_name(e) << ": " << once.error;
    EXPECT_EQ(once.fingerprint(), again.fingerprint()) << strategy_name(e);

    harness::MatrixAxes axes;
    axes.engines = {e};
    axes.workloads = {harness::WorkloadKind::kLogisticRegression};
    axes.traces = {harness::TraceProfile::kControlledStragglers,
                   harness::TraceProfile::kVolatileCloud};
    const auto serial = harness::run_matrix(cfg, axes, {.jobs = 1});
    const auto sharded = harness::run_matrix(cfg, axes, {.jobs = 3});
    EXPECT_EQ(serial.fingerprint(), sharded.fingerprint())
        << strategy_name(e);
  }
}

TEST(EngineConformance, UsefulWorkIsExactKCoverage) {
  // The decodability budget, read off the books. Conventional MDS uses
  // exactly the fastest k full partitions by construction, so on a uniform
  // oracle cluster every MDS-family allocation policy (speed-proportional
  // s2c2, equal-share s2c2-basic, agc's adaptive active set) must book the
  // SAME useful work per round: k partitions' worth, every chunk covered
  // exactly k times. Only the waste differs (mds cancels n - k workers;
  // the adaptive kinds dispatch no surplus).
  const FunctionalRig rig;
  const std::vector<StrategyKind> mds_family = {
      StrategyKind::kMds, StrategyKind::kS2C2, StrategyKind::kS2C2Basic,
      StrategyKind::kAgc};
  double reference = 0.0;
  for (const StrategyKind k : mds_family) {
    const auto engine = core::make_engine(k, rig.params());
    (void)engine->run_round(rig.x);
    const double useful = engine->accounting().total_useful();
    ASSERT_GT(useful, 0.0) << strategy_name(k);
    if (k == StrategyKind::kMds) {
      reference = useful;
      EXPECT_GT(engine->accounting().total_wasted(), 0.0)
          << "mds must cancel its n - k surplus responders";
    } else {
      EXPECT_NEAR(useful, reference, 1e-9 * reference) << strategy_name(k);
    }
  }

  // The rateless kind's quorum is a symbol threshold, not k responders:
  // useful work must cover >= decode_threshold symbols, advance in whole
  // responders (the simulator delivers a worker's batch atomically), and
  // stay within the collected fleet.
  const auto engine = core::make_engine(StrategyKind::kLt, rig.params());
  const auto* lt = dynamic_cast<const core::LtCodedEngine*>(engine.get());
  ASSERT_NE(lt, nullptr);
  (void)engine->run_round(rig.x);
  const double chunk_work =
      core::matvec_flops(lt->rows_per_chunk(), rig.a.cols()) /
      engine->cluster().worker_flops;
  const double symbols = engine->accounting().total_useful() / chunk_work;
  const double per_worker = static_cast<double>(lt->code().chunks_per_worker());
  EXPECT_GE(symbols, static_cast<double>(lt->code().decode_threshold()) - 0.5);
  EXPECT_LE(symbols, static_cast<double>(lt->code().total_symbols()) + 0.5);
  EXPECT_NEAR(std::remainder(symbols, per_worker), 0.0, 1e-6)
      << "lt useful work must advance in whole-responder symbol batches";
}

TEST(EngineConformance, AccountingConservationPerWorker) {
  // Idle time is what's left of the busy window after booked work: for
  // every worker whose busy window is tracked, useful + wasted <= busy.
  // Two historical conventions are load-bearing here (total_busy is hashed
  // into the pinned job-suite golden, so they are wire format): the
  // compute-only styles (poly, the uncoded baselines) book work without
  // busy telemetry at all, and full-telemetry engines book a cancelled
  // worker's partial progress as waste without opening a busy window —
  // both surface as busy_time == 0, never as an over-booked window.
  // Cost-only at paper-ish scale so the uncoded baselines' speculative /
  // rebalancing dynamics are exercised too.
  for (const StrategyKind k : core::registered_strategies()) {
    EngineParams p;
    p.cluster = core::ClusterSpec::uniform(12);
    p.rows = 1200;
    p.cols = 120;
    p.k = 10;
    p.chunks_per_partition = 12;
    p.a_blocks = 3;
    p.oracle_speeds = true;
    const auto engine = core::make_engine(k, std::move(p));
    (void)engine->run_rounds(3);
    const sim::Accounting& acc = engine->accounting();
    EXPECT_GT(acc.total_useful(), 0.0) << strategy_name(k);
    double busy_sum = 0.0;
    for (std::size_t w = 0; w < acc.num_workers(); ++w) {
      EXPECT_GE(acc.worker(w).useful_work, 0.0)
          << strategy_name(k) << " worker " << w;
      EXPECT_GE(acc.worker(w).wasted_work, 0.0)
          << strategy_name(k) << " worker " << w;
      busy_sum += acc.worker(w).busy_time;
    }
    if (busy_sum == 0.0) continue;  // compute-only accounting style
    for (std::size_t w = 0; w < acc.num_workers(); ++w) {
      const sim::WorkerAccount& wa = acc.worker(w);
      if (wa.busy_time > 0.0) {
        EXPECT_GE(wa.busy_time + 1e-9, wa.useful_work + wa.wasted_work)
            << strategy_name(k) << " worker " << w
            << ": booked more work than its busy window holds";
      } else {
        EXPECT_EQ(wa.useful_work, 0.0)
            << strategy_name(k) << " worker " << w
            << ": useful work requires a busy window (waste alone may be "
            << "booked without one, by the cancelled-worker convention)";
      }
    }
    // Cluster-wide, the tracked busy time must cover all useful work.
    EXPECT_GE(busy_sum + 1e-9, acc.total_useful()) << strategy_name(k);
  }
}

TEST(EngineConformance, RunRoundsForwardsTheDirectProduct) {
  // Functional mode is not a simulation: every round's payload must BE the
  // product. Matvec kinds against the dense direct multiply at 1e-9 for
  // all rounds of a run_rounds loop; the poly kinds against the direct
  // bilinear Hessian (their Vandermonde solves are less conditioned, so
  // the shared relative tolerance of expect_matrix_close applies).
  const FunctionalRig rig;
  const test::FunctionalHessian hess;
  for (const StrategyKind k : core::registered_strategies()) {
    if (is_poly(k)) {
      const auto engine =
          core::make_engine(k, functional_params(k, rig, hess));
      const core::RoundResult r = engine->run_round(hess.x);
      ASSERT_TRUE(r.hessian.has_value()) << strategy_name(k);
      test::expect_matrix_close(*r.hessian, hess.truth);
      continue;
    }
    const auto engine = core::make_engine(k, rig.params());
    const auto rounds = engine->run_rounds(3, rig.x);
    ASSERT_EQ(rounds.size(), 3u) << strategy_name(k);
    for (const core::RoundResult& r : rounds) {
      ASSERT_TRUE(r.y.has_value()) << strategy_name(k);
      EXPECT_LT(linalg::max_abs_diff(*r.y, rig.truth), 1e-9)
          << strategy_name(k);
    }
  }
}

TEST(EngineConformance, BlockRoundWidthOneIdentityOrCleanRejection) {
  // The serving layer's gate: a kind either implements the width-generic
  // block data path — and then a width-1 block round is bitwise the
  // single-RHS round — or it reports supports_block_rounds() == false and
  // rejects width > 1 with the registry's capability predicate agreeing.
  const FunctionalRig rig;
  const test::FunctionalHessian hess;
  linalg::Matrix x_panel(rig.a.cols(), 1);
  for (std::size_t i = 0; i < rig.x.size(); ++i) x_panel(i, 0) = rig.x[i];
  for (const StrategyKind k : core::registered_strategies()) {
    const auto engine = core::make_engine(k, functional_params(k, rig, hess));
    EXPECT_EQ(engine->supports_block_rounds(),
              core::strategy_supports_block_rounds(k))
        << strategy_name(k);
    if (!engine->supports_block_rounds()) {
      // Both rejection sites in the taxonomy throw a std::logic_error
      // (S2C2_REQUIRE's std::invalid_argument derives from it).
      EXPECT_THROW((void)engine->run_round_block(linalg::Matrix(), 2),
                   std::logic_error)
          << strategy_name(k);
      continue;
    }
    if (is_poly(k)) continue;  // unreachable: poly kinds reject above
    const auto twin = core::make_engine(k, rig.params());
    const core::RoundResult single = engine->run_round(rig.x);
    const core::RoundResult block = twin->run_round_block(x_panel, 1);
    ASSERT_TRUE(single.y.has_value()) << strategy_name(k);
    ASSERT_TRUE(block.y.has_value()) << strategy_name(k);
    ASSERT_EQ(block.y->size(), single.y->size()) << strategy_name(k);
    for (std::size_t i = 0; i < single.y->size(); ++i) {
      EXPECT_EQ((*block.y)[i], (*single.y)[i])
          << strategy_name(k) << " row " << i
          << ": width-1 block round drifted off the single-RHS path";
    }
    EXPECT_EQ(block.stats.latency(), single.stats.latency())
        << strategy_name(k);
  }
}

TEST(EngineConformance, AgcDegradesToConventionalMdsUnderOracle) {
  // Cao et al.'s degradation property, pinned: with an oracle predictor on
  // a straggler-free cluster (distinct speeds, none below the threshold x
  // median flag rule) agc's predicted-straggler count is 0 every round, so
  // its active set is exactly the quorum of fastest workers — the same set
  // conventional MDS's fastest-k collection uses. Latency and decoded
  // product match bit for bit; only the waste differs (mds cancels its
  // n - k surplus, agc dispatched none).
  const FunctionalRig rig;
  std::vector<sim::SpeedTrace> traces;
  for (std::size_t w = 0; w < 12; ++w) {
    traces.push_back(sim::SpeedTrace::constant(
        0.8 + 0.4 * static_cast<double>(w) / 11.0));
  }
  const auto agc = core::make_engine(StrategyKind::kAgc, rig.params(traces));
  const auto mds = core::make_engine(StrategyKind::kMds, rig.params(traces));
  for (std::size_t round = 0; round < 4; ++round) {
    const core::RoundResult a = agc->run_round(rig.x);
    const core::RoundResult m = mds->run_round(rig.x);
    EXPECT_EQ(a.stats.latency(), m.stats.latency()) << "round " << round;
    ASSERT_TRUE(a.y.has_value());
    ASSERT_TRUE(m.y.has_value());
    ASSERT_EQ(a.y->size(), m.y->size());
    for (std::size_t i = 0; i < a.y->size(); ++i) {
      EXPECT_EQ((*a.y)[i], (*m.y)[i]) << "round " << round << " row " << i;
    }
  }
  EXPECT_EQ(agc->accounting().total_wasted(), 0.0)
      << "a well-predicted agc round must waste nothing";
  EXPECT_GT(mds->accounting().total_wasted(), 0.0);
}

TEST(EngineConformance, EngineAxisIdsArePinnedAndDistinct) {
  // The matrix's engine-axis id feeds cell seeds and fingerprints: the
  // legacy four are frozen by the PR 5 goldens, the later registrations by
  // their own goldens. New kinds append ids; renumbering any of these is a
  // silent invalidation of every pinned fingerprint.
  EXPECT_EQ(harness::engine_axis_id(StrategyKind::kS2C2), 0u);
  EXPECT_EQ(harness::engine_axis_id(StrategyKind::kReplication), 1u);
  EXPECT_EQ(harness::engine_axis_id(StrategyKind::kPoly), 2u);
  EXPECT_EQ(harness::engine_axis_id(StrategyKind::kOverDecomp), 3u);
  EXPECT_EQ(harness::engine_axis_id(StrategyKind::kLt), 4u);
  EXPECT_EQ(harness::engine_axis_id(StrategyKind::kAgc), 5u);
  EXPECT_EQ(harness::engine_axis_id(StrategyKind::kS2C2Basic), 6u);
  EXPECT_EQ(harness::engine_axis_id(StrategyKind::kMds), 7u);
  EXPECT_EQ(harness::engine_axis_id(StrategyKind::kPolyConventional), 8u);
  std::set<std::uint64_t> ids;
  for (const StrategyKind e : harness::extended_engines()) {
    EXPECT_TRUE(ids.insert(harness::engine_axis_id(e)).second)
        << strategy_name(e);
  }
}

TEST(EngineConformance, WarmRoundsMatchColdRoundsBitForBit) {
  // The allocation-free machinery (recycled RoundResults, retained
  // scratch, the decoder arena) must be invisible in round payloads: round
  // r of a warm engine that recycles every result is byte-identical —
  // product bits, latency bits, prediction vectors — to round r of a twin
  // engine that never recycles and therefore exercises the fresh-result
  // path every time. Combined with the pinned fingerprint goldens
  // (fingerprint_guard_test) this is the no-re-pins guarantee: scratch
  // reuse changed WHERE results are built, never WHAT they contain.
  const FunctionalRig rig;
  const test::FunctionalHessian hess;
  for (const StrategyKind k : core::registered_strategies()) {
    if (is_poly(k)) continue;  // Hessian payload covered by its own suite
    const auto recycling = core::make_engine(k, rig.params());
    const auto fresh = core::make_engine(k, rig.params());
    for (std::size_t round = 0; round < 5; ++round) {
      core::RoundResult warm = recycling->run_round(rig.x);
      const core::RoundResult cold = fresh->run_round(rig.x);
      EXPECT_EQ(warm.stats.latency(), cold.stats.latency())
          << strategy_name(k) << " round " << round;
      EXPECT_EQ(warm.predicted_speeds, cold.predicted_speeds)
          << strategy_name(k) << " round " << round;
      EXPECT_EQ(warm.observed_speeds, cold.observed_speeds)
          << strategy_name(k) << " round " << round;
      ASSERT_TRUE(warm.y.has_value()) << strategy_name(k);
      ASSERT_TRUE(cold.y.has_value()) << strategy_name(k);
      ASSERT_EQ(warm.y->size(), cold.y->size()) << strategy_name(k);
      for (std::size_t i = 0; i < warm.y->size(); ++i) {
        EXPECT_EQ((*warm.y)[i], (*cold.y)[i])
            << strategy_name(k) << " round " << round << " row " << i;
      }
      EXPECT_FALSE(warm.y_block.has_value()) << strategy_name(k);
      EXPECT_FALSE(warm.hessian.has_value()) << strategy_name(k);
      recycling->recycle(std::move(warm));
    }
  }
}

TEST(EngineConformance, InnerParallelRoundsMatchSerialBitForBit) {
  // The inner_jobs knob, per registered kind: an engine with
  // inner_jobs = 4 must produce byte-identical rounds to the serial twin —
  // latency bits, product bits, prediction vectors, accounting totals,
  // decode telemetry. This rig's chunk products sit below
  // CodedComputeEngine::kMinParallelChunkFlops, so it pins the serial
  // fallback under a live pool; the above-threshold fan-out is checked by
  // InnerParallelBlockRoundsMatchSerialBitForBit.
  const FunctionalRig rig;
  const test::FunctionalHessian hess;
  for (const StrategyKind k : core::registered_strategies()) {
    EngineParams serial_params = functional_params(k, rig, hess);
    EngineParams parallel_params = functional_params(k, rig, hess);
    parallel_params.inner_jobs = 4;
    const auto serial = core::make_engine(k, std::move(serial_params));
    const auto inner = core::make_engine(k, std::move(parallel_params));
    const std::span<const double> x =
        is_poly(k) ? std::span<const double>(hess.x)
                   : std::span<const double>(rig.x);
    for (std::size_t round = 0; round < 3; ++round) {
      const core::RoundResult s = serial->run_round(x);
      const core::RoundResult p = inner->run_round(x);
      EXPECT_EQ(s.stats.latency(), p.stats.latency())
          << strategy_name(k) << " round " << round;
      EXPECT_EQ(s.predicted_speeds, p.predicted_speeds)
          << strategy_name(k) << " round " << round;
      EXPECT_EQ(s.observed_speeds, p.observed_speeds)
          << strategy_name(k) << " round " << round;
      ASSERT_EQ(s.y.has_value(), p.y.has_value()) << strategy_name(k);
      if (s.y.has_value()) {
        ASSERT_EQ(s.y->size(), p.y->size()) << strategy_name(k);
        for (std::size_t i = 0; i < s.y->size(); ++i) {
          EXPECT_EQ((*s.y)[i], (*p.y)[i])
              << strategy_name(k) << " round " << round << " row " << i
              << ": inner-parallel round drifted off the serial bits";
        }
      }
      ASSERT_EQ(s.hessian.has_value(), p.hessian.has_value())
          << strategy_name(k);
      if (s.hessian.has_value()) {
        ASSERT_EQ(s.hessian->rows(), p.hessian->rows()) << strategy_name(k);
        ASSERT_EQ(s.hessian->cols(), p.hessian->cols()) << strategy_name(k);
        for (std::size_t r = 0; r < s.hessian->rows(); ++r) {
          for (std::size_t c = 0; c < s.hessian->cols(); ++c) {
            EXPECT_EQ((*s.hessian)(r, c), (*p.hessian)(r, c))
                << strategy_name(k) << " round " << round;
          }
        }
      }
    }
    EXPECT_EQ(serial->accounting().total_useful(),
              inner->accounting().total_useful())
        << strategy_name(k);
    EXPECT_EQ(serial->accounting().total_wasted(),
              inner->accounting().total_wasted())
        << strategy_name(k);
    const coding::DecodeContextStats ss = serial->decode_stats();
    const coding::DecodeContextStats ps = inner->decode_stats();
    EXPECT_EQ(ss.entries, ps.entries) << strategy_name(k);
    EXPECT_EQ(ss.hits, ps.hits)
        << strategy_name(k)
        << ": inner_jobs changed the cache hit/miss telemetry";
    EXPECT_EQ(ss.misses, ps.misses) << strategy_name(k);
  }
}

TEST(EngineConformance, InnerParallelBlockRoundsMatchSerialBitForBit) {
  // Same contract over the multi-RHS block data path (the serving layer's
  // round): y_block must carry the serial bits at inner_jobs = 4. Two
  // geometries: the narrow rig at b = 3, whose chunk products stay on the
  // serial path, and a 240 x 512 operator at b = 16, whose products are
  // big enough that the engine fans them out over its inner pool — the
  // one intra-round parallel layer. Each (worker, chunk) task writes only
  // its own staged decoder span, so any divergence is an ownership bug,
  // not roundoff.
  const test::FunctionalHessian hess;
  const auto check = [&hess](const FunctionalRig& rig, std::size_t width) {
    linalg::Matrix x_panel(rig.a.cols(), width);
    util::Rng panel_rng(29);
    for (double& v : x_panel.mutable_data()) v = panel_rng.normal();
    for (const StrategyKind k : core::registered_strategies()) {
      if (!core::strategy_supports_block_rounds(k) || is_poly(k)) continue;
      EngineParams parallel_params = functional_params(k, rig, hess);
      parallel_params.inner_jobs = 4;
      const auto serial =
          core::make_engine(k, functional_params(k, rig, hess));
      const auto inner = core::make_engine(k, std::move(parallel_params));
      for (std::size_t round = 0; round < 2; ++round) {
        const core::RoundResult s = serial->run_round_block(x_panel, width);
        const core::RoundResult p = inner->run_round_block(x_panel, width);
        EXPECT_EQ(s.stats.latency(), p.stats.latency())
            << strategy_name(k) << " b=" << width << " round " << round;
        ASSERT_TRUE(s.y_block.has_value()) << strategy_name(k);
        ASSERT_TRUE(p.y_block.has_value()) << strategy_name(k);
        ASSERT_EQ(s.y_block->rows(), p.y_block->rows()) << strategy_name(k);
        ASSERT_EQ(s.y_block->cols(), p.y_block->cols()) << strategy_name(k);
        for (std::size_t r = 0; r < s.y_block->rows(); ++r) {
          for (std::size_t c = 0; c < s.y_block->cols(); ++c) {
            EXPECT_EQ((*s.y_block)(r, c), (*p.y_block)(r, c))
                << strategy_name(k) << " b=" << width << " round " << round
                << " (" << r << ", " << c << ")";
          }
        }
      }
    }
  };

  const auto chunk_flops = [](const FunctionalRig& rig, std::size_t width) {
    const EngineParams p = rig.params();
    return core::CodedMatVecJob(rig.a, p.cluster.num_workers(), p.k,
                                p.chunks_per_partition)
        .chunk_flops(width);
  };
  constexpr double kThreshold =
      core::CodedComputeEngine::kMinParallelChunkFlops;

  const FunctionalRig narrow;
  ASSERT_LT(chunk_flops(narrow, 3), kThreshold)
      << "the narrow case must exercise the serial fallback";
  check(narrow, 3);

  const FunctionalRig wide(512);
  ASSERT_GE(chunk_flops(wide, 16), kThreshold)
      << "the wide case must exercise the chunk fan-out";
  check(wide, 16);
}

TEST(EngineConformance, DecodeCacheWarmsAcrossRepeatedRounds) {
  // Coded kinds charge decode through coding::DecodeContext; on a uniform
  // cluster the responder set repeats, so after the first round every
  // factorization must be a cache hit. Uncoded kinds have no decode stage
  // and report empty stats — the predicate and the telemetry must agree.
  const FunctionalRig rig;
  const test::FunctionalHessian hess;
  for (const StrategyKind k : core::registered_strategies()) {
    const auto engine = core::make_engine(k, functional_params(k, rig, hess));
    (void)engine->run_rounds(3, is_poly(k) ? std::span<const double>(hess.x)
                                           : std::span<const double>(rig.x));
    const coding::DecodeContextStats stats = engine->decode_stats();
    if (core::strategy_is_coded(k)) {
      EXPECT_GE(stats.entries, 1u) << strategy_name(k);
      EXPECT_GE(stats.hits, 1u)
          << strategy_name(k) << ": repeated responder sets never hit the "
          << "decode cache";
    } else {
      EXPECT_EQ(stats.entries, 0u) << strategy_name(k);
      EXPECT_EQ(stats.hits + stats.misses, 0u) << strategy_name(k);
    }
  }
}

}  // namespace
}  // namespace s2c2
