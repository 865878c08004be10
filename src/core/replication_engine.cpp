#include "src/core/replication_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/util/require.h"
#include "src/util/rng.h"

namespace s2c2::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

ReplicationEngine::ReplicationEngine(std::size_t data_rows,
                                     std::size_t data_cols, ClusterSpec spec,
                                     ReplicationConfig config,
                                     DirectMultiply direct)
    : StrategyEngine(StrategyKind::kReplication, std::move(spec), nullptr),
      data_rows_(data_rows),
      data_cols_(data_cols),
      config_(config),
      direct_(std::move(direct)) {
  const std::size_t n = spec_.num_workers();
  S2C2_REQUIRE(n >= 2, "need at least two workers");
  S2C2_REQUIRE(config_.replication >= 1 && config_.replication <= n,
               "replication factor out of range");
  // Primary on worker p; r-1 backups per the placement policy.
  util::Rng rng(config_.placement_seed);
  placement_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    placement_[p].push_back(p);
    if (config_.placement == Placement::kRoundRobin) {
      for (std::size_t i = 1; i < config_.replication; ++i) {
        placement_[p].push_back((p + i) % n);
      }
    } else {
      std::vector<std::size_t> others;
      for (std::size_t w = 0; w < n; ++w) {
        if (w != p) others.push_back(w);
      }
      rng.shuffle(others);
      for (std::size_t i = 0; i + 1 < config_.replication; ++i) {
        placement_[p].push_back(others[i]);
      }
    }
  }
}

RoundResult ReplicationEngine::run_round_impl(std::span<const double> x,
                                              const linalg::Matrix* x_block,
                                              std::size_t width) {
  if (spec_.byzantine.active()) {
    // Replicas carry no redundancy a residual check could verify against:
    // a corrupted copy is indistinguishable from an honest one, so the
    // strategy fails deterministically (a `failed` scenario-matrix cell —
    // docs/DESIGN.md §7).
    throw std::runtime_error(
        "cluster failure: replication cannot verify byzantine responses");
  }
  const std::size_t n = spec_.num_workers();
  const sim::Time t0 = now();
  const std::size_t task_rows = (data_rows_ + n - 1) / n;
  // Per-round charges scale by the RHS block width; partition_bytes does
  // not (it is stored data, moved only on non-holder speculation).
  const double task_work = matvec_flops(task_rows, data_cols_) *
                           static_cast<double>(width) / spec_.worker_flops;
  const std::size_t x_bytes = data_cols_ * width * 8;
  const std::size_t result_bytes = task_rows * width * 8;
  const std::size_t partition_bytes = task_rows * data_cols_ * 8;

  // Primary executions.
  std::vector<sim::Time> primary_resp(n);
  std::vector<sim::Time> x_arrival(n);
  for (std::size_t w = 0; w < n; ++w) {
    x_arrival[w] = t0 + spec_.net.transfer_time(x_bytes);
    const sim::Time done =
        spec_.traces[w].time_to_complete(x_arrival[w], task_work);
    primary_resp[w] =
        done == kInf ? kInf : done + spec_.net.transfer_time(result_bytes);
  }

  // Speculation decision point: when `quantile` of tasks have responded.
  std::vector<sim::Time> sorted = primary_resp;
  std::sort(sorted.begin(), sorted.end());
  const auto q_idx = static_cast<std::size_t>(std::ceil(
      config_.speculation_quantile * static_cast<double>(n)));
  const sim::Time t_spec = sorted[std::min(q_idx, n - 1)];
  if (t_spec == kInf) {
    throw std::runtime_error("cluster failure: too few live workers");
  }

  // Outstanding tasks at t_spec, slowest first.
  std::vector<std::size_t> candidates;
  for (std::size_t p = 0; p < n; ++p) {
    if (primary_resp[p] > t_spec) candidates.push_back(p);
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t a, std::size_t b) {
              return primary_resp[a] > primary_resp[b];
            });
  if (candidates.size() > config_.max_speculative) {
    candidates.resize(config_.max_speculative);
  }

  // Idle pool: workers whose primary already responded; each becomes
  // available again after finishing a speculative task.
  std::vector<sim::Time> available(n, kInf);
  for (std::size_t w = 0; w < n; ++w) {
    if (primary_resp[w] <= t_spec) available[w] = t_spec;
  }

  RoundResult result;
  result.stats.start = t0;
  std::vector<sim::Time> completion = primary_resp;

  for (std::size_t task : candidates) {
    // Best speculative placement: replica holders strictly first; data
    // movement only when no idle holder exists ("absolutely needed").
    std::size_t best_w = n;
    sim::Time best_finish = kInf;
    bool best_moved = false;
    for (const bool holders_pass : {true, false}) {
      if (!holders_pass && !config_.allow_data_movement) break;
      for (std::size_t w = 0; w < n; ++w) {
        if (available[w] == kInf || w == task) continue;
        const bool holder =
            std::find(placement_[task].begin(), placement_[task].end(), w) !=
            placement_[task].end();
        if (holder != holders_pass) continue;
        sim::Time start = available[w] + spec_.net.latency_s;
        if (!holder) start += spec_.net.partition_move_time(partition_bytes);
        const sim::Time done =
            spec_.traces[w].time_to_complete(start, task_work);
        if (done == kInf) continue;
        const sim::Time finish = done + spec_.net.transfer_time(result_bytes);
        if (finish < best_finish) {
          best_w = w;
          best_finish = finish;
          best_moved = !holder;
        }
      }
      if (best_w != n) break;  // found an idle holder; never move data
    }
    if (best_w == n) continue;  // nobody available — task rides on primary
    if (best_finish < completion[task]) {
      // Speculative copy wins: primary's progress becomes waste.
      const double primary_progress = std::min(
          task_work, spec_.traces[task].work_between(
                         x_arrival[task], std::min(best_finish, kInf)));
      accounting_.add_wasted(task, primary_progress);
      accounting_.add_useful(best_w, task_work);
      completion[task] = best_finish;
      if (best_moved) {
        ++result.stats.data_moves;
        accounting_.add_traffic(best_w, 0.0,
                                static_cast<double>(partition_bytes));
      }
    } else {
      // Primary wins: whatever the speculative copy managed is waste (zero
      // when the primary finished before the copy even started).
      const sim::Time spec_start = available[best_w];
      const sim::Time until = std::max(spec_start, completion[task]);
      const double spec_progress = std::min(
          task_work, spec_.traces[best_w].work_between(spec_start, until));
      accounting_.add_wasted(best_w, spec_progress);
      accounting_.add_useful(task, task_work);
    }
    available[best_w] = best_finish;
  }
  // Tasks that were never speculated: primary work was useful.
  for (std::size_t p = 0; p < n; ++p) {
    if (std::find(candidates.begin(), candidates.end(), p) ==
        candidates.end()) {
      accounting_.add_useful(p, task_work);
    }
  }

  sim::Time end = 0.0;
  for (sim::Time t : completion) end = std::max(end, t);
  if (end == kInf) {
    throw std::runtime_error("cluster failure: task cannot complete");
  }
  result.stats.coverage = end;  // uncoded: no master decode after collection
  result.stats.end = end;

  forward_direct_product(direct_, x, x_block, result);
  return result;
}

}  // namespace s2c2::core
