#include "src/core/overdecomp_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "src/util/require.h"

namespace s2c2::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

OverDecompositionEngine::OverDecompositionEngine(
    std::size_t data_rows, std::size_t data_cols, ClusterSpec spec,
    OverDecompConfig config,
    std::unique_ptr<predict::SpeedPredictor> predictor, DirectMultiply direct)
    : StrategyEngine(StrategyKind::kOverDecomp, std::move(spec),
                     std::move(predictor)),
      data_rows_(data_rows),
      data_cols_(data_cols),
      config_(config),
      direct_(std::move(direct)) {
  const std::size_t n = spec_.num_workers();
  S2C2_REQUIRE(n >= 2, "need at least two workers");
  S2C2_REQUIRE(config_.decomposition_factor >= 1, "decomposition factor >= 1");
  S2C2_REQUIRE(config_.replication_factor >= 1.0, "replication factor >= 1");
  ensure_predictor(config_.oracle_speeds);
  num_partitions_ = n * config_.decomposition_factor;
  partition_rows_ = (data_rows_ + num_partitions_ - 1) / num_partitions_;
  // Primary copies: worker w holds partitions [w*F, (w+1)*F). Extra copies
  // to reach the replication factor go round-robin to the next worker.
  holders_.resize(num_partitions_);
  for (std::size_t p = 0; p < num_partitions_; ++p) {
    holders_[p].insert(p / config_.decomposition_factor);
  }
  const auto extra = static_cast<std::size_t>(std::llround(
      (config_.replication_factor - 1.0) *
      static_cast<double>(num_partitions_)));
  for (std::size_t i = 0; i < extra; ++i) {
    const std::size_t p = i % num_partitions_;
    const std::size_t w =
        (p / config_.decomposition_factor + 1 + i / num_partitions_) % n;
    holders_[p].insert(w);
  }
}

RoundResult OverDecompositionEngine::run_round(std::span<const double> x) {
  return run_round_impl(x, nullptr, 1);
}

RoundResult OverDecompositionEngine::run_wide_round(
    const linalg::Matrix& x_block, std::size_t width) {
  return run_round_impl({}, &x_block, width);
}

RoundResult OverDecompositionEngine::run_round_impl(
    std::span<const double> x, const linalg::Matrix* x_block,
    std::size_t width) {
  if (spec_.byzantine.active()) {
    // Uncoded micro-tasks have no redundant responses to vote with; a
    // corrupted task result flows straight into the assembled product, so
    // the strategy fails deterministically (a `failed` scenario-matrix
    // cell — docs/DESIGN.md §7).
    throw std::runtime_error(
        "cluster failure: over-decomposition cannot verify byzantine "
        "responses");
  }
  const std::size_t n = spec_.num_workers();
  const sim::Time t0 = now_;
  // Per-round charges scale by the RHS block width; partition_bytes does
  // not (it is stored data, moved only on migration).
  const double task_work = matvec_flops(partition_rows_, data_cols_) *
                           static_cast<double>(width) / spec_.worker_flops;
  const std::size_t x_bytes = data_cols_ * width * 8;
  const std::size_t result_bytes = partition_rows_ * width * 8;
  const std::size_t partition_bytes = partition_rows_ * data_cols_ * 8;

  RoundResult result;
  result.stats.start = t0;
  result.predicted_speeds.resize(n);
  for (std::size_t w = 0; w < n; ++w) {
    result.predicted_speeds[w] = config_.oracle_speeds
                                     ? spec_.traces[w].speed_at(t0)
                                     : predictor_->predict(w);
  }

  // Quotas proportional to predicted speed (largest remainder).
  std::vector<double> s = result.predicted_speeds;
  double ssum = 0.0;
  for (double& v : s) {
    v = std::max(v, 1e-3);
    ssum += v;
  }
  std::vector<std::size_t> quota(n, 0);
  std::vector<std::pair<double, std::size_t>> fracs(n);
  std::size_t assigned_total = 0;
  for (std::size_t w = 0; w < n; ++w) {
    const double q =
        static_cast<double>(num_partitions_) * s[w] / ssum;
    quota[w] = static_cast<std::size_t>(q);
    fracs[w] = {q - static_cast<double>(quota[w]), w};
    assigned_total += quota[w];
  }
  std::sort(fracs.begin(), fracs.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; assigned_total < num_partitions_ && i < n; ++i) {
    ++quota[fracs[i].second];
    ++assigned_total;
  }

  // First pass: place each partition on its least-filled holder (relative
  // to quota). Balanced quotas then keep primaries home; a greedy
  // fastest-holder rule would displace primaries in a cascade and force
  // spurious migrations.
  std::vector<std::size_t> load(n, 0);       // local tasks
  std::vector<std::size_t> migrated(n, 0);   // tasks needing a transfer
  std::vector<std::size_t> unplaced;
  for (std::size_t p = 0; p < num_partitions_; ++p) {
    std::size_t best = n;
    double best_fill = kInf;
    for (std::size_t w : holders_[p]) {
      if (load[w] + migrated[w] >= quota[w]) continue;
      const double fill = static_cast<double>(load[w] + migrated[w]) /
                          static_cast<double>(quota[w]);
      if (fill < best_fill || (fill == best_fill && best < n && s[w] > s[best])) {
        best_fill = fill;
        best = w;
      }
    }
    if (best < n) {
      ++load[best];
    } else {
      unplaced.push_back(p);
    }
  }
  // Second pass: migrate the leftovers to under-quota workers. Workers
  // with zero quota (dead or written off by the predictor) never receive
  // migrated tasks.
  for (std::size_t p : unplaced) {
    std::size_t best = n;
    double best_fill = kInf;
    for (std::size_t w = 0; w < n; ++w) {
      if (quota[w] == 0) continue;
      const double fill =
          static_cast<double>(load[w] + migrated[w] + 1) /
          static_cast<double>(quota[w]);
      if (fill < best_fill) {
        best_fill = fill;
        best = w;
      }
    }
    S2C2_CHECK(best < n, "migration target must exist");
    ++migrated[best];
    holders_[p].insert(best);  // destination keeps the copy
    ++migrations_;
    ++result.stats.data_moves;
    accounting_.add_traffic(best, 0.0, static_cast<double>(partition_bytes));
  }

  // Worker timelines: local tasks first, then migrated ones (each migrated
  // partition must arrive before it can run; transfers overlap compute).
  sim::Time end = 0.0;
  result.observed_speeds.assign(n, 0.0);
  for (std::size_t w = 0; w < n; ++w) {
    const std::size_t tasks = load[w] + migrated[w];
    if (tasks == 0) {
      result.observed_speeds[w] = spec_.traces[w].speed_at(t0);
      if (predictor_) predictor_->observe(w, result.observed_speeds[w]);
      continue;
    }
    const sim::Time x_arrival = t0 + spec_.net.transfer_time(x_bytes);
    sim::Time done = spec_.traces[w].time_to_complete(
        x_arrival, static_cast<double>(load[w]) * task_work);
    for (std::size_t m = 0; m < migrated[w]; ++m) {
      const sim::Time arrival =
          t0 + spec_.net.partition_move_time(partition_bytes) *
                   static_cast<double>(m + 1);
      done = spec_.traces[w].time_to_complete(std::max(done, arrival),
                                              task_work);
    }
    if (done == kInf) {
      throw std::runtime_error("cluster failure: over-decomp worker died");
    }
    const sim::Time resp =
        done + spec_.net.transfer_time(tasks * result_bytes);
    end = std::max(end, resp);
    accounting_.add_useful(w, static_cast<double>(tasks) * task_work);
    accounting_.add_busy(w, done - x_arrival);
    accounting_.add_traffic(w, static_cast<double>(tasks * result_bytes),
                            static_cast<double>(x_bytes));
    // Execution speed over the compute window (migration waits included —
    // that slot genuinely was not computing); result transfer and the
    // initial broadcast stay out (see the matching note in
    // round_executor.cpp).
    const double obs =
        static_cast<double>(tasks) * task_work / (done - x_arrival);
    result.observed_speeds[w] = obs;
    if (predictor_) predictor_->observe(w, obs);
  }
  result.stats.coverage = end;  // uncoded: no master decode after collection
  result.stats.end = end;
  count_prediction_round(result.predicted_speeds, result.observed_speeds);

  // Uncoded execution computes the exact product by construction: forward
  // it so functional loops go through the same code path as the coded
  // engines (mirrors the PR 3 run_rounds fix). Block rounds forward the
  // whole panel product in one matmat call.
  if (direct_) {
    if (x_block != nullptr && !x_block->empty()) {
      result.y_block = direct_(*x_block);
    } else if (!x.empty()) {
      const linalg::Matrix panel(x.size(), 1, {x.begin(), x.end()});
      const linalg::Matrix y = direct_(panel);
      result.y = linalg::Vector(y.data().begin(), y.data().end());
    }
  }

  now_ = end;
  ++rounds_run_;
  return result;
}

std::size_t OverDecompositionEngine::storage_bytes(std::size_t worker) const {
  S2C2_REQUIRE(worker < spec_.num_workers(), "worker out of range");
  const std::size_t partition_bytes = partition_rows_ * data_cols_ * 8;
  std::size_t count = 0;
  for (const auto& hs : holders_) count += hs.count(worker);
  return count * partition_bytes;
}

}  // namespace s2c2::core
