#include "src/sched/coverage.h"

#include <algorithm>

namespace s2c2::sched {

std::vector<std::size_t> chunk_coverage(const Allocation& a) {
  std::vector<std::size_t> cov(a.chunks_per_partition, 0);
  for (const ChunkRange& r : a.per_worker) {
    for (std::size_t i = 0; i < r.count; ++i) {
      cov[(r.begin + i) % a.chunks_per_partition]++;
    }
  }
  return cov;
}

bool has_coverage(const Allocation& a, std::size_t k) {
  const auto cov = chunk_coverage(a);
  return std::all_of(cov.begin(), cov.end(),
                     [k](std::size_t c) { return c >= k; });
}

bool has_exact_coverage(const Allocation& a, std::size_t k) {
  const auto cov = chunk_coverage(a);
  return std::all_of(cov.begin(), cov.end(),
                     [k](std::size_t c) { return c == k; });
}

void chunk_workers_into(const Allocation& a,
                        std::vector<std::vector<std::size_t>>& out) {
  // Shrinking keeps the trimmed inner vectors' capacity alive inside
  // `out` only up to the new size; growing reuses whatever inner
  // capacity survived from earlier calls.
  out.resize(a.chunks_per_partition);
  for (auto& ws : out) ws.clear();
  // Workers are visited in ascending order, so every list comes out sorted
  // (a range longer than the partition repeats its worker adjacently).
  for (std::size_t w = 0; w < a.per_worker.size(); ++w) {
    const ChunkRange& r = a.per_worker[w];
    for (std::size_t i = 0; i < r.count; ++i) {
      out[(r.begin + i) % a.chunks_per_partition].push_back(w);
    }
  }
}

std::vector<std::vector<std::size_t>> chunk_workers(const Allocation& a) {
  std::vector<std::vector<std::size_t>> out;
  chunk_workers_into(a, out);
  return out;
}

std::vector<CoverageGroup> coverage_groups(const Allocation& a) {
  const auto per_chunk = chunk_workers(a);
  std::vector<CoverageGroup> groups;
  for (std::size_t c = 0; c < per_chunk.size(); ++c) {
    if (!groups.empty() && groups.back().workers == per_chunk[c]) {
      groups.back().num_chunks++;
    } else {
      groups.push_back({c, 1, per_chunk[c]});
    }
  }
  return groups;
}

}  // namespace s2c2::sched
