#include "src/sched/reassignment.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "src/util/require.h"

namespace s2c2::sched {

bool ReassignmentPlan::empty() const {
  return std::all_of(chunks_per_worker.begin(), chunks_per_worker.end(),
                     [](const auto& v) { return v.empty(); });
}

std::size_t ReassignmentPlan::total_chunks() const {
  std::size_t total = 0;
  for (const auto& v : chunks_per_worker) total += v.size();
  return total;
}

void plan_reassignment_into(
    std::span<const std::size_t> deficient,
    std::span<const std::span<const std::size_t>> have_workers,
    std::span<const std::size_t> needed, std::span<const double> speeds,
    ReassignmentScratch& scratch, ReassignmentPlan& out) {
  S2C2_REQUIRE(deficient.size() == have_workers.size() &&
                   deficient.size() == needed.size(),
               "reassignment inputs must be parallel arrays");
  const std::size_t n = speeds.size();
  out.chunks_per_worker.resize(n);
  for (auto& chunks : out.chunks_per_worker) chunks.clear();

  const std::size_t total_needed =
      std::accumulate(needed.begin(), needed.end(), std::size_t{0});
  if (total_needed == 0) return;

  // Candidate workers ordered fastest-first; speed-proportional quotas by
  // largest remainder. Depleting quotas in candidate order yields
  // *contiguous* chunk runs per worker, which keeps the number of distinct
  // decode responder-sets (LU factorizations) small.
  std::vector<std::size_t>& order = scratch.order;
  order.clear();
  double speed_sum = 0.0;
  for (std::size_t w = 0; w < n; ++w) {
    if (speeds[w] > 0.0) {
      order.push_back(w);
      speed_sum += speeds[w];
    }
  }
  S2C2_REQUIRE(!order.empty(), "no live workers for reassignment");
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return speeds[a] > speeds[b]; });

  std::vector<std::size_t>& quota = scratch.quota;
  quota.assign(n, 0);
  {
    auto& fracs = scratch.fracs;
    fracs.clear();
    std::size_t assigned = 0;
    for (std::size_t w : order) {
      const double share =
          static_cast<double>(total_needed) * speeds[w] / speed_sum;
      quota[w] = static_cast<std::size_t>(share);
      assigned += quota[w];
      fracs.emplace_back(share - static_cast<double>(quota[w]), w);
    }
    std::sort(fracs.begin(), fracs.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (std::size_t i = 0; assigned < total_needed && i < fracs.size(); ++i) {
      ++quota[fracs[i].second];
      ++assigned;
    }
  }
  // Quotas only ever shrink, so the preferred pick can scan just the
  // candidates that start with one (at most total_needed of them).
  std::vector<std::size_t>& holders = scratch.holders;
  holders.clear();
  for (std::size_t w : order) {
    if (quota[w] > 0) holders.push_back(w);
  }

  // Entries naming the same chunk share one planned-worker bitmap row, so
  // a duplicate entry never hands that chunk to a worker twice.
  const std::size_t words = (n + 63) / 64;
  auto& by_chunk = scratch.by_chunk;
  by_chunk.clear();
  for (std::size_t i = 0; i < deficient.size(); ++i) {
    by_chunk.emplace_back(deficient[i], i);
  }
  std::sort(by_chunk.begin(), by_chunk.end());
  scratch.group.resize(deficient.size());
  std::size_t groups = 0;
  for (std::size_t j = 0; j < by_chunk.size(); ++j) {
    if (j > 0 && by_chunk[j].first != by_chunk[j - 1].first) ++groups;
    scratch.group[by_chunk[j].second] = groups;
  }
  scratch.planned.assign((groups + 1) * words, 0);

  // Epoch stamps make "worker w already holds this entry's chunk" an O(1)
  // test. Grown slots start at 0, below every live epoch.
  std::vector<std::uint64_t>& marked = scratch.marked;
  if (marked.size() < n) marked.resize(n, 0);

  for (std::size_t i = 0; i < deficient.size(); ++i) {
    const std::size_t chunk = deficient[i];
    const std::uint64_t epoch = ++scratch.epoch;
    for (const std::size_t w : have_workers[i]) {
      if (w < n) marked[w] = epoch;
    }
    std::uint64_t* planned = scratch.planned.data() + scratch.group[i] * words;
    for (std::size_t word = 0; word < words; ++word) {
      for (std::uint64_t bits = planned[word]; bits != 0; bits &= bits - 1) {
        marked[word * 64 + static_cast<std::size_t>(std::countr_zero(bits))] =
            epoch;
      }
    }
    for (std::size_t need = 0; need < needed[i]; ++need) {
      std::size_t best = n;
      // Preferred: the first candidate (fastest-first) with quota left —
      // consecutive chunks land on the same worker until it fills.
      for (std::size_t w : holders) {
        if (quota[w] > 0 && marked[w] != epoch) {
          best = w;
          break;
        }
      }
      if (best == n) {
        // Quotas exhausted by exclusion constraints: overflow to any
        // eligible worker, least loaded first (the earliest in `order` on
        // ties, so the first idle eligible worker ends the scan).
        std::size_t best_load = 0;
        for (std::size_t w : order) {
          if (marked[w] == epoch) continue;
          if (best == n || out.chunks_per_worker[w].size() < best_load) {
            best = w;
            best_load = out.chunks_per_worker[w].size();
            if (best_load == 0) break;
          }
        }
      }
      S2C2_REQUIRE(best < n,
                   "reassignment infeasible: not enough distinct workers");
      out.chunks_per_worker[best].push_back(chunk);
      marked[best] = epoch;
      planned[best / 64] |= std::uint64_t{1} << (best % 64);
      if (quota[best] > 0) --quota[best];
    }
  }
}

ReassignmentPlan plan_reassignment(
    std::span<const std::size_t> deficient,
    std::span<const std::vector<std::size_t>> have_workers,
    std::span<const std::size_t> needed, std::span<const double> speeds) {
  std::vector<std::span<const std::size_t>> have(have_workers.begin(),
                                                 have_workers.end());
  ReassignmentScratch scratch;
  ReassignmentPlan plan;
  plan_reassignment_into(deficient, have, needed, speeds, scratch, plan);
  return plan;
}

}  // namespace s2c2::sched
