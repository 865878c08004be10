// Tests for S2C2 work allocation (paper Algorithm 1 + production
// proportional allocator). The exact-k coverage invariant is the paper's
// decodability guarantee and is property-swept here.
#include <gtest/gtest.h>

#include <numeric>
#include <ostream>

#include "src/sched/allocation.h"
#include "src/sched/coverage.h"
#include "src/util/rng.h"

namespace s2c2::sched {
namespace {

TEST(ChunkRange, IndicesWrapAround) {
  const ChunkRange r{4, 3};
  const auto idx = r.indices(5);
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx[0], 4u);
  EXPECT_EQ(idx[1], 0u);
  EXPECT_EQ(idx[2], 1u);
  EXPECT_TRUE(r.contains(0, 5));
  EXPECT_TRUE(r.contains(4, 5));
  EXPECT_FALSE(r.contains(2, 5));
}

TEST(ChunkRange, EmptyRangeContainsNothing) {
  const ChunkRange r{2, 0};
  EXPECT_FALSE(r.contains(2, 5));
  EXPECT_TRUE(r.indices(5).empty());
}

TEST(Algorithm1, PaperFig5Example) {
  // Paper Fig 5: speeds {2,2,2,2,1}, coverage 4 (=a² of the poly code).
  // C = Σu = 9; allocations {8,8,8,8,4}.
  const std::vector<int> speeds{2, 2, 2, 2, 1};
  const Allocation alloc = algorithm1(speeds, 4);
  EXPECT_EQ(alloc.chunks_per_partition, 9u);
  EXPECT_EQ(alloc.per_worker[0].count, 8u);
  EXPECT_EQ(alloc.per_worker[1].count, 8u);
  EXPECT_EQ(alloc.per_worker[2].count, 8u);
  EXPECT_EQ(alloc.per_worker[3].count, 8u);
  EXPECT_EQ(alloc.per_worker[4].count, 4u);
  EXPECT_TRUE(has_exact_coverage(alloc, 4));
}

TEST(Algorithm1, EqualSpeedsGiveEqualShares) {
  const std::vector<int> speeds{1, 1, 1, 1};
  const Allocation alloc = algorithm1(speeds, 2);
  EXPECT_EQ(alloc.chunks_per_partition, 4u);
  for (const auto& r : alloc.per_worker) EXPECT_EQ(r.count, 2u);
  EXPECT_TRUE(has_exact_coverage(alloc, 2));
}

TEST(Algorithm1, ZeroSpeedWorkerGetsNothing) {
  const std::vector<int> speeds{3, 3, 3, 0};
  const Allocation alloc = algorithm1(speeds, 3);
  EXPECT_EQ(alloc.per_worker[3].count, 0u);
  EXPECT_TRUE(has_exact_coverage(alloc, 3));
}

TEST(Algorithm1, VeryFastWorkerIsCappedAtPartition) {
  // One worker 100x faster: its share is capped at C and the rest spills.
  const std::vector<int> speeds{100, 1, 1, 1};
  const Allocation alloc = algorithm1(speeds, 2);
  const std::size_t c = alloc.chunks_per_partition;
  EXPECT_EQ(alloc.per_worker[0].count, c);
  EXPECT_TRUE(has_exact_coverage(alloc, 2));
}

TEST(Algorithm1, InfeasibleWhenFewerThanKLiveWorkers) {
  const std::vector<int> speeds{5, 0, 0, 0};
  EXPECT_THROW(algorithm1(speeds, 2), std::invalid_argument);
}

TEST(Proportional, MatchesAlgorithm1OnIntegerSpeeds) {
  const std::vector<int> ispeeds{2, 2, 2, 2, 1};
  const std::vector<double> dspeeds{2, 2, 2, 2, 1};
  const Allocation a1 = algorithm1(ispeeds, 4);
  const Allocation a2 = proportional_allocation(dspeeds, 4, 9);
  ASSERT_EQ(a1.per_worker.size(), a2.per_worker.size());
  for (std::size_t w = 0; w < a1.per_worker.size(); ++w) {
    EXPECT_EQ(a1.per_worker[w].count, a2.per_worker[w].count) << "worker " << w;
  }
}

TEST(Proportional, RejectsInsufficientLiveWorkers) {
  const std::vector<double> speeds{1.0, 0.0, 0.0};
  EXPECT_THROW(proportional_allocation(speeds, 2, 8), std::invalid_argument);
}

TEST(Proportional, RejectsNegativeOrNanSpeeds) {
  EXPECT_THROW(
      proportional_allocation(std::vector<double>{1.0, -0.5}, 1, 4),
      std::invalid_argument);
}

TEST(Proportional, ExactlyKLiveWorkersEachTakeFullPartition) {
  const std::vector<double> speeds{1.0, 0.0, 2.0, 0.0, 0.5};
  const Allocation alloc = proportional_allocation(speeds, 3, 6);
  EXPECT_EQ(alloc.per_worker[0].count, 6u);
  EXPECT_EQ(alloc.per_worker[2].count, 6u);
  EXPECT_EQ(alloc.per_worker[4].count, 6u);
  EXPECT_EQ(alloc.per_worker[1].count, 0u);
}

TEST(BasicS2C2, EqualSharesOverNonStragglers) {
  // Paper Fig 4c: (4,2) code, worker 4 (index 3) straggling; everyone else
  // computes 2/3 of its partition.
  const std::vector<bool> straggler{false, false, false, true};
  const Allocation alloc = basic_s2c2_allocation(straggler, 2, 3);
  EXPECT_EQ(alloc.per_worker[0].count, 2u);
  EXPECT_EQ(alloc.per_worker[1].count, 2u);
  EXPECT_EQ(alloc.per_worker[2].count, 2u);
  EXPECT_EQ(alloc.per_worker[3].count, 0u);
  EXPECT_TRUE(has_exact_coverage(alloc, 2));
}

TEST(FullAllocation, EveryWorkerGetsWholePartition) {
  const Allocation alloc = full_allocation(5, 7);
  EXPECT_EQ(alloc.total_chunks(), 35u);
  for (const auto& r : alloc.per_worker) EXPECT_EQ(r.count, 7u);
  EXPECT_TRUE(has_coverage(alloc, 5));
}

TEST(Allocation, ChunksOfMaterializesWrappedRange) {
  const std::vector<double> speeds{1.0, 1.0, 1.0};
  const Allocation alloc = proportional_allocation(speeds, 2, 3);
  // Counts are {2,2,2} laid out consecutively: [0,1], [2,0], [1,2].
  const auto c0 = alloc.chunks_of(0);
  const auto c1 = alloc.chunks_of(1);
  EXPECT_EQ(c0, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(c1, (std::vector<std::size_t>{2, 0}));
  EXPECT_THROW(alloc.chunks_of(9), std::invalid_argument);
}

// ---- property sweep: exact-k coverage under random speeds ----

struct CoverageParam {
  std::size_t n, k, c;
  std::uint64_t seed;
};

// Names each case from its fields (the default is a byte dump).
void PrintTo(const CoverageParam& p, std::ostream* os) {
  *os << "n" << p.n << " k" << p.k << " c" << p.c << " seed " << p.seed;
}

class ProportionalCoverage : public ::testing::TestWithParam<CoverageParam> {};

TEST_P(ProportionalCoverage, ExactKCoverageAlwaysHolds) {
  const auto p = GetParam();
  util::Rng rng(p.seed);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> speeds(p.n);
    std::size_t live = 0;
    for (auto& s : speeds) {
      // Heavy-tailed speeds incl. zeros and 100x spreads.
      const double u = rng.uniform();
      s = u < 0.15 ? 0.0 : std::exp(rng.normal(0.0, 1.5));
      if (s > 0.0) ++live;
    }
    if (live < p.k) continue;  // infeasible draw — rejected by REQUIRE
    const Allocation alloc = proportional_allocation(speeds, p.k, p.c);
    EXPECT_TRUE(has_exact_coverage(alloc, p.k))
        << "n=" << p.n << " k=" << p.k << " trial=" << trial;
    EXPECT_EQ(alloc.total_chunks(), p.k * p.c);
    for (std::size_t w = 0; w < p.n; ++w) {
      EXPECT_LE(alloc.per_worker[w].count, p.c);
      if (speeds[w] == 0.0) {
        EXPECT_EQ(alloc.per_worker[w].count, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProportionalCoverage,
    ::testing::Values(CoverageParam{4, 2, 3, 1}, CoverageParam{4, 3, 8, 2},
                      CoverageParam{12, 6, 24, 3}, CoverageParam{12, 10, 24, 4},
                      CoverageParam{10, 7, 16, 5}, CoverageParam{50, 40, 50, 6},
                      CoverageParam{8, 7, 14, 7}, CoverageParam{9, 7, 21, 8}));

class Algorithm1Coverage : public ::testing::TestWithParam<CoverageParam> {};

TEST_P(Algorithm1Coverage, ExactKCoverageAlwaysHolds) {
  const auto p = GetParam();
  util::Rng rng(p.seed + 77);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int> speeds(p.n);
    std::size_t live = 0;
    for (auto& s : speeds) {
      s = static_cast<int>(rng.uniform_int(0, 8));
      if (s > 0) ++live;
    }
    if (live < p.k) continue;
    const Allocation alloc = algorithm1(speeds, p.k);
    EXPECT_TRUE(has_exact_coverage(alloc, p.k))
        << "n=" << p.n << " k=" << p.k << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Algorithm1Coverage,
    ::testing::Values(CoverageParam{4, 2, 0, 11}, CoverageParam{12, 6, 0, 12},
                      CoverageParam{12, 10, 0, 13},
                      CoverageParam{10, 7, 0, 14}));

// ---- combinatorial sweep: (workers, stragglers, chunks) ----
//
// Straggler-shaped speed profiles (the paper's controlled cluster: 5x-slow
// nodes, and the harsher dead-node variant) across the full cross product
// of cluster size x straggler count x chunk granularity. The decodability
// guarantee must hold in every cell, for both the production proportional
// allocator and basic S2C2's straggler-exclusion allocation.

class StragglerSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(StragglerSweep, ExactKCoverageUnderStragglerProfiles) {
  const auto [workers, stragglers, chunks] = GetParam();
  ASSERT_GT(workers, stragglers);
  const std::size_t k = std::max<std::size_t>(1, workers - 3);
  util::Rng rng(1000 + workers * 100 + stragglers * 10 + chunks);

  for (const double straggler_speed : {0.2, 0.05, 0.0}) {
    std::vector<double> speeds(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      speeds[w] = w >= workers - stragglers ? straggler_speed
                                            : rng.uniform(0.85, 1.0);
    }
    const std::size_t live = straggler_speed > 0.0 ? workers
                                                   : workers - stragglers;
    ASSERT_GE(live, k);  // sweep stays in the feasible regime

    const Allocation alloc = proportional_allocation(speeds, k, chunks);
    EXPECT_TRUE(has_exact_coverage(alloc, k))
        << "workers=" << workers << " stragglers=" << stragglers
        << " chunks=" << chunks << " speed=" << straggler_speed;
    EXPECT_EQ(alloc.total_chunks(), k * chunks);
    for (std::size_t w = 0; w < workers; ++w) {
      EXPECT_LE(alloc.per_worker[w].count, chunks);
      if (speeds[w] == 0.0) {
        EXPECT_EQ(alloc.per_worker[w].count, 0u);
      }
    }
  }

  // Basic S2C2: flagged stragglers are excluded outright; the equal-share
  // allocation over the rest must still cover exactly k.
  std::vector<bool> flagged(workers, false);
  for (std::size_t w = workers - stragglers; w < workers; ++w) {
    flagged[w] = true;
  }
  const Allocation basic = basic_s2c2_allocation(flagged, k, chunks);
  EXPECT_TRUE(has_exact_coverage(basic, k));
  for (std::size_t w = workers - stragglers; w < workers; ++w) {
    EXPECT_EQ(basic.per_worker[w].count, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StragglerSweep,
    ::testing::Combine(::testing::Values<std::size_t>(4, 8, 12, 16, 24),
                       ::testing::Values<std::size_t>(0, 1, 2, 3),
                       ::testing::Values<std::size_t>(8, 24, 48)));

}  // namespace
}  // namespace s2c2::sched
