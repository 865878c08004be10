// Tests for the unified strategy layer: the StrategyKind taxonomy and its
// naming/parsing/capability helpers, the engine constructor (make_engine),
// and the polymorphic StrategyEngine contract every strategy satisfies.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/core/engine_factory.h"
#include "src/util/rng.h"

namespace s2c2::core {
namespace {

TEST(StrategyKind, NameParseRoundTrip) {
  for (const StrategyKind k : all_strategy_kinds()) {
    EXPECT_EQ(parse_strategy(strategy_name(k)), k) << strategy_name(k);
  }
  EXPECT_THROW((void)parse_strategy("no-such-strategy"),
               std::invalid_argument);
}

TEST(StrategyKind, NamesAreDistinctAndStable) {
  std::set<std::string> names;
  for (const StrategyKind k : all_strategy_kinds()) {
    EXPECT_TRUE(names.insert(strategy_name(k)).second) << strategy_name(k);
  }
  // The CLI/report spellings are a wire format (CSV artifacts, golden
  // fingerprints' failure strings); renaming them is a breaking change.
  EXPECT_STREQ(strategy_name(StrategyKind::kS2C2), "s2c2");
  EXPECT_STREQ(strategy_name(StrategyKind::kMds), "mds");
  EXPECT_STREQ(strategy_name(StrategyKind::kPoly), "poly");
  EXPECT_STREQ(strategy_name(StrategyKind::kReplication), "replication");
  EXPECT_STREQ(strategy_name(StrategyKind::kOverDecomp), "overdecomp");
}

TEST(StrategyKind, CapabilityPredicates) {
  // Prediction use drives the harness's predictor axis; coded-ness the
  // decode stage; recovery the §4.3 timeout window.
  EXPECT_TRUE(strategy_uses_predictions(StrategyKind::kS2C2));
  EXPECT_FALSE(strategy_uses_predictions(StrategyKind::kMds));
  EXPECT_FALSE(strategy_uses_predictions(StrategyKind::kReplication));
  EXPECT_TRUE(strategy_uses_predictions(StrategyKind::kOverDecomp));
  EXPECT_TRUE(strategy_is_coded(StrategyKind::kPoly));
  EXPECT_FALSE(strategy_is_coded(StrategyKind::kOverDecomp));
  EXPECT_TRUE(strategy_uses_recovery(StrategyKind::kS2C2));
  EXPECT_TRUE(strategy_uses_recovery(StrategyKind::kPoly));
  EXPECT_FALSE(strategy_uses_recovery(StrategyKind::kMds));
  EXPECT_FALSE(strategy_uses_recovery(StrategyKind::kReplication));
  // The later additions: lt is coded but prediction-blind (the code's
  // redundancy absorbs stragglers) and opts out of both §4.3 recovery and
  // byzantine verification; agc is a prediction-driven MDS variant.
  EXPECT_TRUE(strategy_is_coded(StrategyKind::kLt));
  EXPECT_FALSE(strategy_uses_predictions(StrategyKind::kLt));
  EXPECT_FALSE(strategy_uses_recovery(StrategyKind::kLt));
  EXPECT_FALSE(strategy_tolerates_byzantine(StrategyKind::kLt));
  EXPECT_TRUE(strategy_is_coded(StrategyKind::kAgc));
  EXPECT_TRUE(strategy_uses_predictions(StrategyKind::kAgc));
  EXPECT_TRUE(strategy_uses_recovery(StrategyKind::kAgc));
  // Block-round support gates the serving layer's multi-RHS batching.
  EXPECT_TRUE(strategy_supports_block_rounds(StrategyKind::kLt));
  EXPECT_FALSE(strategy_supports_block_rounds(StrategyKind::kPoly));
}

EngineParams cost_only_params(std::size_t n, std::size_t rows,
                              std::size_t cols) {
  EngineParams p;
  p.cluster = ClusterSpec::uniform(n);
  p.rows = rows;
  p.cols = cols;
  p.k = n - 2;
  p.chunks_per_partition = 12;
  p.a_blocks = 3;
  p.oracle_speeds = true;
  return p;
}

TEST(EngineFactory, BuildsEveryRegisteredStrategy) {
  for (const StrategyKind k : all_strategy_kinds()) {
    const auto engine =
        make_engine(k, cost_only_params(12, 1200, 120));
    ASSERT_NE(engine, nullptr) << strategy_name(k);
    EXPECT_EQ(engine->kind(), k);
  }
}

TEST(EngineFactory, PolymorphicRoundsAdvanceEveryEngineClock) {
  // Every strategy driven through the base interface only — the contract
  // the harness, job driver, and CLIs rely on. Iterating
  // all_strategy_kinds() (not a hand list) means a new kind is under
  // contract the day it lands.
  for (const StrategyKind k : all_strategy_kinds()) {
    const std::unique_ptr<StrategyEngine> engine =
        make_engine(k, cost_only_params(12, 1200, 120));
    const auto rounds = engine->run_rounds(3);
    ASSERT_EQ(rounds.size(), 3u) << strategy_name(k);
    for (const RoundResult& r : rounds) {
      EXPECT_GT(r.stats.latency(), 0.0) << strategy_name(k);
      EXPECT_FALSE(r.y.has_value());        // cost-only
      EXPECT_FALSE(r.hessian.has_value());  // cost-only
    }
    EXPECT_EQ(engine->now(), rounds.back().stats.end) << strategy_name(k);
    EXPECT_EQ(engine->timeout_rate(), 0.0) << strategy_name(k);  // uniform
  }
}

TEST(EngineFactory, FunctionalDecodeThroughTheBaseInterface) {
  // Dense functional operator through each matvec strategy: coded decodes
  // and uncoded exact forwards must agree with the direct product. The
  // poly family is skipped — its functional product is Hessian-shaped
  // (covered in poly_engine_test), not a matvec y.
  util::Rng rng(5);
  const auto a = linalg::Matrix::random_uniform(120, 24, rng);
  linalg::Vector x(24);
  for (auto& v : x) v = rng.normal();
  const linalg::Vector truth = a.matvec(x);
  for (const StrategyKind k : all_strategy_kinds()) {
    if (k == StrategyKind::kPoly || k == StrategyKind::kPolyConventional) {
      continue;
    }
    EngineParams p = cost_only_params(12, 0, 0);
    p.dense = &a;
    const auto engine = make_engine(k, std::move(p));
    const RoundResult r = engine->run_round(x);
    ASSERT_TRUE(r.y.has_value()) << strategy_name(k);
    EXPECT_LT(linalg::max_abs_diff(*r.y, truth), 1e-9) << strategy_name(k);
  }
}

}  // namespace
}  // namespace s2c2::core
