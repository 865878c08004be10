// Tests for timeout-recovery reassignment planning (paper §4.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/sched/reassignment.h"
#include "src/util/rng.h"

namespace s2c2::sched {
namespace {

/// The planner as it stood before its O(1) exclusion test: every
/// exclusion is a linear std::find over the chunk's responders and the
/// worker's planned chunks. Kept here as the independent reference the
/// production planner must match decision for decision.
ReassignmentPlan reference_plan(
    std::span<const std::size_t> deficient,
    std::span<const std::vector<std::size_t>> have_workers,
    std::span<const std::size_t> needed, std::span<const double> speeds) {
  if (deficient.size() != have_workers.size() ||
      deficient.size() != needed.size()) {
    throw std::invalid_argument("reassignment inputs must be parallel arrays");
  }
  ReassignmentPlan plan;
  plan.chunks_per_worker.resize(speeds.size());
  const std::size_t total_needed =
      std::accumulate(needed.begin(), needed.end(), std::size_t{0});
  if (total_needed == 0) return plan;

  std::vector<std::size_t> order;
  double speed_sum = 0.0;
  for (std::size_t w = 0; w < speeds.size(); ++w) {
    if (speeds[w] > 0.0) {
      order.push_back(w);
      speed_sum += speeds[w];
    }
  }
  if (order.empty()) {
    throw std::invalid_argument("no live workers for reassignment");
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return speeds[a] > speeds[b]; });

  std::vector<std::size_t> quota(speeds.size(), 0);
  {
    std::vector<std::pair<double, std::size_t>> fracs;
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

  auto already_has = [&](std::size_t w, std::size_t i, std::size_t chunk) {
    return std::find(have_workers[i].begin(), have_workers[i].end(), w) !=
               have_workers[i].end() ||
           std::find(plan.chunks_per_worker[w].begin(),
                     plan.chunks_per_worker[w].end(),
                     chunk) != plan.chunks_per_worker[w].end();
  };

  for (std::size_t i = 0; i < deficient.size(); ++i) {
    const std::size_t chunk = deficient[i];
    for (std::size_t need = 0; need < needed[i]; ++need) {
      std::size_t best = speeds.size();
      for (std::size_t w : order) {
        if (quota[w] > 0 && !already_has(w, i, chunk)) {
          best = w;
          break;
        }
      }
      if (best == speeds.size()) {
        std::size_t best_load = 0;
        for (std::size_t w : order) {
          if (already_has(w, i, chunk)) continue;
          if (best == speeds.size() ||
              plan.chunks_per_worker[w].size() < best_load) {
            best = w;
            best_load = plan.chunks_per_worker[w].size();
          }
        }
      }
      if (best >= speeds.size()) {
        throw std::invalid_argument(
            "reassignment infeasible: not enough distinct workers");
      }
      plan.chunks_per_worker[best].push_back(chunk);
      if (quota[best] > 0) --quota[best];
    }
  }
  return plan;
}

std::size_t draw(util::Rng& rng, std::size_t lo, std::size_t hi) {
  return static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
}

TEST(Reassignment, EmptyInputsYieldEmptyPlan) {
  const auto plan = plan_reassignment({}, {}, {}, std::vector<double>{1.0});
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.total_chunks(), 0u);
}

TEST(Reassignment, FillsDeficitsWithDistinctWorkers) {
  // Chunk 7 needs 2 more results; workers 0 and 1 already have it.
  const std::vector<std::size_t> deficient{7};
  const std::vector<std::vector<std::size_t>> have{{0, 1}};
  const std::vector<std::size_t> needed{2};
  const std::vector<double> speeds{1.0, 1.0, 2.0, 1.0, 0.0};
  const auto plan = plan_reassignment(deficient, have, needed, speeds);
  EXPECT_EQ(plan.total_chunks(), 2u);
  // Workers 0/1 excluded (already have), worker 4 excluded (speed 0).
  EXPECT_TRUE(plan.chunks_per_worker[0].empty());
  EXPECT_TRUE(plan.chunks_per_worker[1].empty());
  EXPECT_TRUE(plan.chunks_per_worker[4].empty());
  EXPECT_EQ(plan.chunks_per_worker[2].size() + plan.chunks_per_worker[3].size(),
            2u);
}

TEST(Reassignment, NeverAssignsSameChunkTwiceToOneWorker) {
  const std::vector<std::size_t> deficient{3, 3};  // duplicated chunk entry
  const std::vector<std::vector<std::size_t>> have{{}, {}};
  const std::vector<std::size_t> needed{1, 1};
  const std::vector<double> speeds{1.0, 1.0};
  const auto plan = plan_reassignment(deficient, have, needed, speeds);
  for (const auto& chunks : plan.chunks_per_worker) {
    std::set<std::size_t> uniq(chunks.begin(), chunks.end());
    EXPECT_EQ(uniq.size(), chunks.size());
  }
  EXPECT_EQ(plan.total_chunks(), 2u);
}

TEST(Reassignment, LoadBalancesBySpeed) {
  // 9 deficits, workers with speeds 2:1 — fast worker should take ~2x.
  std::vector<std::size_t> deficient;
  std::vector<std::vector<std::size_t>> have;
  std::vector<std::size_t> needed;
  for (std::size_t c = 0; c < 9; ++c) {
    deficient.push_back(c);
    have.push_back({});
    needed.push_back(1);
  }
  const std::vector<double> speeds{2.0, 1.0};
  const auto plan = plan_reassignment(deficient, have, needed, speeds);
  EXPECT_EQ(plan.chunks_per_worker[0].size(), 6u);
  EXPECT_EQ(plan.chunks_per_worker[1].size(), 3u);
}

TEST(Reassignment, QuotaExhaustionOverflowsToZeroQuotaWorker) {
  // Regression for the overflow path: the fast worker holds the whole
  // speed-proportional quota, but it already has both deficient chunks, so
  // every assignment must overflow to the slow worker — whose quota is 0.
  const std::vector<std::size_t> deficient{0, 1};
  const std::vector<std::vector<std::size_t>> have{{0}, {0}};
  const std::vector<std::size_t> needed{1, 1};
  const std::vector<double> speeds{10.0, 1.0};
  const auto plan = plan_reassignment(deficient, have, needed, speeds);
  EXPECT_TRUE(plan.chunks_per_worker[0].empty());
  EXPECT_EQ(plan.chunks_per_worker[1],
            (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(plan.total_chunks(), 2u);
}

TEST(Reassignment, OverflowPicksLeastLoadedEligibleWorker) {
  // Worker 0 again soaks up the quota but is excluded everywhere. The
  // first overflow loads worker 1; the second must then prefer worker 2
  // (load 0) over worker 1 (load 1) even though worker 1 is faster.
  const std::vector<std::size_t> deficient{0, 1};
  const std::vector<std::vector<std::size_t>> have{{0, 2}, {0}};
  const std::vector<std::size_t> needed{1, 1};
  const std::vector<double> speeds{8.0, 1.2, 1.1};
  const auto plan = plan_reassignment(deficient, have, needed, speeds);
  EXPECT_TRUE(plan.chunks_per_worker[0].empty());
  EXPECT_EQ(plan.chunks_per_worker[1], (std::vector<std::size_t>{0}));
  EXPECT_EQ(plan.chunks_per_worker[2], (std::vector<std::size_t>{1}));
}

TEST(Reassignment, OverflowNeverDuplicatesChunkOnOneWorker) {
  // Quota-exhausted overflow must still honor the exclusion constraints:
  // chunk 5 needs two extra copies and only workers 1 and 2 may take one
  // each, regardless of worker 1 hoarding the quota.
  const std::vector<std::size_t> deficient{5, 5};
  const std::vector<std::vector<std::size_t>> have{{0}, {0}};
  const std::vector<std::size_t> needed{1, 1};
  const std::vector<double> speeds{100.0, 1.0, 1.0};
  const auto plan = plan_reassignment(deficient, have, needed, speeds);
  EXPECT_TRUE(plan.chunks_per_worker[0].empty());
  EXPECT_EQ(plan.chunks_per_worker[1], (std::vector<std::size_t>{5}));
  EXPECT_EQ(plan.chunks_per_worker[2], (std::vector<std::size_t>{5}));
}

TEST(Reassignment, InfeasibleThrows) {
  // Chunk needs 2 distinct new workers but only one candidate exists.
  const std::vector<std::size_t> deficient{0};
  const std::vector<std::vector<std::size_t>> have{{0}};
  const std::vector<std::size_t> needed{2};
  const std::vector<double> speeds{1.0, 1.0};  // worker 0 already has it
  EXPECT_THROW(plan_reassignment(deficient, have, needed, speeds),
               std::invalid_argument);
}

TEST(Reassignment, ParallelArrayMismatchThrows) {
  const std::vector<std::size_t> deficient{0, 1};
  const std::vector<std::vector<std::size_t>> have{{}};
  const std::vector<std::size_t> needed{1, 1};
  EXPECT_THROW(
      plan_reassignment(deficient, have, needed, std::vector<double>{1.0}),
      std::invalid_argument);
}

TEST(Reassignment, MatchesReferencePlannerOnRandomInputs) {
  // Random geometries that hit every branch of the planner: tied speeds
  // (the sorts' tie order is behavior), zero and negative speeds,
  // duplicate deficient entries, chunks needing nothing more, responder
  // lists with repeats and out-of-range ids, and infeasible inputs. One
  // scratch and one plan are reused across every trial, as the executor
  // reuses them across rounds.
  util::Rng rng(0x2ea551);
  ReassignmentScratch scratch;
  ReassignmentPlan reused;
  std::size_t feasible = 0, infeasible = 0, duplicates = 0;
  for (std::size_t trial = 0; trial < 2000; ++trial) {
    const std::size_t n = draw(rng, 1, 40);
    std::vector<double> speeds(n);
    for (double& v : speeds) {
      const double u = rng.uniform();
      if (u < 0.15) {
        v = 0.0;
      } else if (u < 0.18) {
        v = -1.0;
      } else if (u < 0.45) {
        v = 0.5 * static_cast<double>(draw(rng, 1, 3));  // ties
      } else {
        v = rng.uniform(0.01, 3.0);
      }
    }
    const std::size_t chunks = draw(rng, 1, 12);
    const std::size_t entries = draw(rng, 0, 10);
    std::vector<std::size_t> deficient(entries);
    std::vector<std::vector<std::size_t>> have(entries);
    std::vector<std::size_t> needed(entries);
    for (std::size_t i = 0; i < entries; ++i) {
      deficient[i] = draw(rng, 0, chunks - 1);
      const std::size_t holders = draw(rng, 0, n);
      for (std::size_t h = 0; h < holders; ++h) {
        have[i].push_back(draw(rng, 0, n));  // id n is out of range
      }
      needed[i] = draw(rng, 0, 4);
    }
    std::vector<std::size_t> sorted = deficient;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      ++duplicates;
    }

    std::vector<std::span<const std::size_t>> views(have.begin(), have.end());
    ReassignmentPlan want;
    bool want_throws = false;
    try {
      want = reference_plan(deficient, have, needed, speeds);
    } catch (const std::invalid_argument&) {
      want_throws = true;
    }
    if (want_throws) {
      ++infeasible;
      EXPECT_THROW(plan_reassignment_into(deficient, views, needed, speeds,
                                          scratch, reused),
                   std::invalid_argument)
          << "trial " << trial;
      EXPECT_THROW((void)plan_reassignment(deficient, have, needed, speeds),
                   std::invalid_argument)
          << "trial " << trial;
      continue;
    }
    ++feasible;
    plan_reassignment_into(deficient, views, needed, speeds, scratch, reused);
    EXPECT_EQ(reused.chunks_per_worker, want.chunks_per_worker)
        << "trial " << trial;
    EXPECT_EQ(plan_reassignment(deficient, have, needed, speeds)
                  .chunks_per_worker,
              want.chunks_per_worker)
        << "trial " << trial;
  }
  // The sweep must actually exercise both outcomes and the duplicates.
  EXPECT_GT(feasible, 500u);
  EXPECT_GT(infeasible, 100u);
  EXPECT_GT(duplicates, 300u);
}

TEST(Reassignment, MatchesReferenceAtRecoveryScale) {
  // The shape the §4.3 timeout produces at n = 250, k = 200: a handful of
  // deficient chunks, each already held by ~190 responders, so the
  // fastest (quota-holding) workers are mostly excluded and the
  // least-loaded overflow decides most picks.
  util::Rng rng(0x250200);
  ReassignmentScratch scratch;
  ReassignmentPlan reused;
  for (std::size_t trial = 0; trial < 50; ++trial) {
    const std::size_t n = 250, chunks = 8;
    std::vector<double> speeds(n);
    for (double& v : speeds) v = rng.bernoulli(0.05) ? 0.0 : rng.uniform();
    std::vector<std::size_t> deficient, needed;
    std::vector<std::vector<std::size_t>> have;
    for (std::size_t c = 0; c < chunks; ++c) {
      if (rng.bernoulli(0.1)) continue;
      std::vector<std::size_t> holders(n);
      std::iota(holders.begin(), holders.end(), std::size_t{0});
      rng.shuffle(holders);
      const std::size_t held = draw(rng, 180, 199);
      holders.resize(held);
      std::sort(holders.begin(), holders.end());
      deficient.push_back(c);
      have.push_back(std::move(holders));
      needed.push_back(200 - held);
    }
    std::vector<std::span<const std::size_t>> views(have.begin(), have.end());
    const ReassignmentPlan want =
        reference_plan(deficient, have, needed, speeds);
    plan_reassignment_into(deficient, views, needed, speeds, scratch, reused);
    EXPECT_EQ(reused.chunks_per_worker, want.chunks_per_worker)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace s2c2::sched
