// Tests for coverage analysis and LU-group coalescing.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/sched/allocation.h"
#include "src/sched/coverage.h"

namespace s2c2::sched {
namespace {

Allocation manual(std::size_t c, std::vector<ChunkRange> ranges) {
  Allocation a;
  a.chunks_per_partition = c;
  a.per_worker = std::move(ranges);
  return a;
}

TEST(Coverage, CountsPerChunk) {
  // Workers: [0,2), [1,3), [2,4) over C=4.
  const Allocation a = manual(4, {{0, 2}, {1, 2}, {2, 2}});
  const auto cov = chunk_coverage(a);
  EXPECT_EQ(cov, (std::vector<std::size_t>{1, 2, 2, 1}));
  EXPECT_TRUE(has_coverage(a, 1));
  EXPECT_FALSE(has_coverage(a, 2));
  EXPECT_FALSE(has_exact_coverage(a, 1));
}

TEST(Coverage, WrapAroundRangesCounted) {
  const Allocation a = manual(4, {{3, 2}, {0, 0}});
  const auto cov = chunk_coverage(a);
  EXPECT_EQ(cov, (std::vector<std::size_t>{1, 0, 0, 1}));
}

TEST(Coverage, ChunkWorkersSorted) {
  const Allocation a = manual(3, {{0, 3}, {1, 2}, {2, 2}});
  const auto per_chunk = chunk_workers(a);
  EXPECT_EQ(per_chunk[0], (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(per_chunk[1], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(per_chunk[2], (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Coverage, ChunkWorkersAscendingWithWrappedDuplicates) {
  // Worker 1's range 1, 2, 0, 1, 2 wraps and covers more chunks than the
  // partition has, so chunks 1 and 2 list it twice; worker 2 wraps too.
  const Allocation a = manual(3, {{1, 1}, {1, 5}, {2, 2}});
  const auto per_chunk = chunk_workers(a);
  EXPECT_EQ(per_chunk[0], (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(per_chunk[1], (std::vector<std::size_t>{0, 1, 1}));
  EXPECT_EQ(per_chunk[2], (std::vector<std::size_t>{1, 1, 2}));
  for (const auto& ws : per_chunk) {
    EXPECT_TRUE(std::is_sorted(ws.begin(), ws.end()));
  }
  // The _into form reuses a larger output and gives the same lists.
  std::vector<std::vector<std::size_t>> out(5, {9, 9});
  chunk_workers_into(a, out);
  EXPECT_EQ(out, per_chunk);
}

TEST(Coverage, GroupsMergeConsecutiveEqualSets) {
  // Exact-2 coverage over C=4 from ranges [0,2),[2,4),[0,2),[2,4).
  const Allocation a = manual(4, {{0, 2}, {2, 2}, {0, 2}, {2, 2}});
  const auto groups = coverage_groups(a);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].first_chunk, 0u);
  EXPECT_EQ(groups[0].num_chunks, 2u);
  EXPECT_EQ(groups[0].workers, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(groups[1].first_chunk, 2u);
  EXPECT_EQ(groups[1].num_chunks, 2u);
}

TEST(Coverage, GroupsOfProportionalAllocationAreFew) {
  // Wrap-around contiguous allocations produce at most ~2n groups.
  const std::vector<double> speeds{3.0, 1.0, 2.0, 0.5, 1.5, 2.5};
  const Allocation a = proportional_allocation(speeds, 4, 60);
  const auto groups = coverage_groups(a);
  EXPECT_LE(groups.size(), 2 * speeds.size());
  std::size_t total = 0;
  for (const auto& g : groups) {
    EXPECT_EQ(g.workers.size(), 4u);  // exact-k sets
    total += g.num_chunks;
  }
  EXPECT_EQ(total, 60u);
}

TEST(Coverage, FullAllocationSingleGroup) {
  const Allocation a = full_allocation(5, 8);
  const auto groups = coverage_groups(a);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].num_chunks, 8u);
  EXPECT_EQ(groups[0].workers.size(), 5u);
}

}  // namespace
}  // namespace s2c2::sched
