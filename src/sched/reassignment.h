// Recovery planning for mis-predictions and failures (paper §4.3).
//
// When the timeout fires, some chunks have fewer than k results. The master
// reassigns each missing (chunk, deficit) pair to workers that (a) already
// responded this round, and (b) have not already computed that chunk —
// a worker's second result for the same chunk adds no new equation.
// Assignment is load-balanced by predicted speed: each candidate worker
// accumulates chunks so as to minimize its projected finish time
// (load+1)/speed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace s2c2::sched {

struct ReassignmentPlan {
  /// chunks_per_worker[w] = extra chunk indices worker w must compute.
  std::vector<std::vector<std::size_t>> chunks_per_worker;

  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::size_t total_chunks() const;
};

/// Working storage of plan_reassignment_into, retained across calls so a
/// warmed planner touches the heap zero times. Contents are meaningless
/// between calls.
struct ReassignmentScratch {
  std::vector<std::size_t> order;  // live candidates, fastest first
  std::vector<std::size_t> quota;  // per worker
  std::vector<std::size_t> holders;  // `order` filtered to quota > 0
  std::vector<std::pair<double, std::size_t>> fracs;
  // Exclusion test in O(1): marked[w] == epoch <=> worker w already holds
  // the chunk of the entry being planned (responded with it, or planned it
  // under an earlier entry for the same chunk).
  std::vector<std::uint64_t> marked;
  std::uint64_t epoch = 0;
  // Duplicate `deficient` entries share one planned-worker bitmap row:
  // group[i] = first entry index with chunk deficient[i].
  std::vector<std::pair<std::size_t, std::size_t>> by_chunk;
  std::vector<std::size_t> group;
  std::vector<std::uint64_t> planned;  // group-major worker bitmaps
};

/// `have_workers[i]` = workers that already produced chunk `deficient[i]`;
/// `needed[i]` = how many additional distinct results that chunk requires;
/// `speeds[w]` = predicted speed of candidate worker w (0 ⇒ unavailable).
/// Throws std::invalid_argument when some chunk cannot reach its quota
/// (fewer available distinct workers than needed) — callers treat that as
/// an unrecoverable cluster failure.
///
/// Fills `out` (outer and inner capacity retained). Candidates are taken
/// fastest-first against speed-proportional largest-remainder quotas, with
/// a least-loaded overflow when exclusions exhaust them; every exclusion
/// test is O(1), so a plan costs O(sum |have| + needs x live workers).
void plan_reassignment_into(
    std::span<const std::size_t> deficient,
    std::span<const std::span<const std::size_t>> have_workers,
    std::span<const std::size_t> needed, std::span<const double> speeds,
    ReassignmentScratch& scratch, ReassignmentPlan& out);

/// Allocating convenience form of plan_reassignment_into (same plan).
[[nodiscard]] ReassignmentPlan plan_reassignment(
    std::span<const std::size_t> deficient,
    std::span<const std::vector<std::size_t>> have_workers,
    std::span<const std::size_t> needed, std::span<const double> speeds);

}  // namespace s2c2::sched
