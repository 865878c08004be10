// The decode cache's resident-entry bound (coding/decode_context.h,
// DecodeContext::kCapacity) on the workload that used to leak: one
// long-lived s2c2 engine at n = 250, k = 200 on volatile cloud traces,
// where the §4.3 timeout fires on most rounds and almost every chunk group
// decodes from a responder set never seen before. Unbounded, the cache
// grew by ~8 entries (~150 KB) per round forever; bounded, it must stop at
// the capacity, evict least-recently-used sets, and keep decoding every
// round correctly. Slow label: ~700 functional rounds at n = 250.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "src/coding/decode_context.h"
#include "src/core/engine.h"
#include "src/linalg/matrix.h"
#include "src/util/rng.h"
#include "src/workload/trace_gen.h"
#include "tests/test_util.h"

namespace s2c2 {
namespace {

TEST(DecodeCacheBound, LongLivedVolatileEngineStaysWithinCapacity) {
  constexpr std::size_t n = 250, k = 200, chunks = 8;
  // Enough rounds to pass the capacity at ~8 fresh responder sets each.
  constexpr std::size_t rounds =
      coding::DecodeContext::kCapacity / chunks * 3 / 2;
  util::Rng rng(0xb0d);
  const linalg::Matrix a = linalg::Matrix::random_uniform(16 * k, 48, rng);
  linalg::Vector x(a.cols());
  for (double& v : x) v = rng.normal();
  const linalg::Vector truth = a.matvec(x);
  double scale = 1.0;
  for (const double v : truth) scale = std::max(scale, std::abs(v));

  const core::CodedMatVecJob job(a, n, k, chunks);
  core::EngineConfig cfg;
  cfg.strategy = core::StrategyKind::kS2C2;
  cfg.chunks_per_partition = chunks;
  // One trace sample per round of a unit-speed cluster; rounds under
  // contention run longer, so the traces hold 4x the rounds.
  core::EngineConfig probe = cfg;
  probe.oracle_speeds = true;
  const double dt = core::CodedComputeEngine(
                        job, test::make_spec(test::uniform_traces(n)), probe)
                        .run_round()
                        .stats.latency();
  core::CodedComputeEngine engine(
      job,
      test::make_spec(workload::traces_from_series(
          workload::cloud_speed_corpus(n, 4 * rounds,
                                       workload::volatile_cloud_config(), rng),
          dt)),
      cfg);

  std::size_t timeouts = 0;
  double worst = 0.0;
  for (std::size_t r = 0; r < rounds; ++r) {
    core::RoundResult result = engine.run_round(x);
    if (result.stats.timeout_fired) ++timeouts;
    ASSERT_TRUE(result.y.has_value());
    worst = std::max(worst, linalg::max_abs_diff(*result.y, truth) / scale);
    ASSERT_LE(engine.decode_stats().entries, coding::DecodeContext::kCapacity)
        << "round " << r;
    engine.recycle(std::move(result));
  }
  const coding::DecodeContextStats stats = engine.decode_stats();
  EXPECT_EQ(stats.entries, coding::DecodeContext::kCapacity);
  EXPECT_GT(stats.evictions, 0u);
  // Every miss past the capacity evicted exactly one entry.
  EXPECT_EQ(stats.evictions, stats.misses - stats.entries);
  EXPECT_GT(timeouts, rounds / 2);
  // Decoded products against the direct product A·x, relative to its
  // largest entry.
  EXPECT_LT(worst, 1e-9);
}

}  // namespace
}  // namespace s2c2
