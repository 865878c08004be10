#include "src/report/claims.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "src/baselines/storage_study.h"
#include "src/core/engine_factory.h"
#include "src/predict/evaluation.h"
#include "src/predict/lstm.h"
#include "src/predict/predictors.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"
#include "src/workload/graphs.h"
#include "src/workload/trace_gen.h"

namespace s2c2::report {

namespace {

using core::StrategyKind;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string band_text(const Band& b) {
  if (std::isinf(b.hi)) return "≥ " + util::fmt(b.lo, 3);
  if (std::isinf(b.lo)) return "≤ " + util::fmt(b.hi, 3);
  return "[" + util::fmt(b.lo, 3) + ", " + util::fmt(b.hi, 3) + "]";
}

// ---- experiment set-up, shared by the paper-figure experiments ----

/// Shape of the paper's duplicated-gisette SVM/LR runs.
constexpr std::size_t kRows = 21000;
constexpr std::size_t kCols = 2000;

core::ClusterSpec cloud_spec(std::size_t n,
                             const workload::CloudTraceConfig& cfg,
                             std::uint64_t seed, double sample_dt) {
  util::Rng rng(seed);
  const auto series = workload::cloud_speed_corpus(n, 400, cfg, rng);
  core::ClusterSpec spec;
  spec.traces = workload::traces_from_series(series, sample_dt);
  return spec;
}

core::ClusterSpec controlled_spec(std::size_t n, std::size_t stragglers,
                                  double variation, std::uint64_t seed) {
  util::Rng rng(seed);
  core::ClusterSpec spec;
  spec.traces =
      workload::controlled_cluster_traces(n, stragglers, variation, rng);
  spec.net.bytes_per_s = 7e9;  // the paper's 56 Gb/s FDR InfiniBand
  return spec;
}

/// The paper's LSTM, trained on a corpus drawn from the cluster's own
/// trace distribution.
predict::Lstm train_speed_lstm(const workload::CloudTraceConfig& cfg,
                               std::uint64_t seed) {
  util::Rng rng(seed);
  const auto corpus = workload::cloud_speed_corpus(24, 150, cfg, rng);
  predict::Lstm lstm(1, 4, seed ^ 0x15ull);
  predict::Lstm::TrainConfig tc;
  tc.epochs = 200;
  tc.bptt_window = 48;
  lstm.train(corpus, tc);
  return lstm;
}

/// Cost-only engine inputs. Speeds come from `lstm` when given, otherwise
/// from the oracle.
core::EngineParams params(const core::ClusterSpec& spec, std::size_t rows,
                          std::size_t cols, std::size_t k, std::size_t chunks,
                          const predict::Lstm* lstm = nullptr) {
  core::EngineParams p;
  p.cluster = spec;
  p.rows = rows;
  p.cols = cols;
  p.k = k;
  p.chunks_per_partition = chunks;
  p.oracle_speeds = lstm == nullptr;
  if (lstm != nullptr) {
    p.predictor =
        std::make_unique<predict::LstmPredictor>(spec.num_workers(), *lstm);
  }
  return p;
}

struct Run {
  double latency = 0.0;  // mean simulated round latency
  double timeout_rate = 0.0;
  /// Rounds in which at least one worker's prediction missed its realized
  /// speed by more than 15% — the paper's per-iteration mis-prediction
  /// rate (the engine's misprediction_rate counts worker-rounds instead).
  double mispredicted_rounds = 0.0;
  double max_wasted = 0.0;   // largest per-worker wasted fraction
  double mean_wasted = 0.0;  // mean per-worker wasted fraction
};

Run run(StrategyKind kind, core::EngineParams p, std::size_t rounds) {
  const std::size_t n = p.cluster.num_workers();
  const auto engine = core::make_engine(kind, std::move(p));
  const auto results = engine->run_rounds(rounds);
  Run out;
  out.latency = core::total_latency(results) / static_cast<double>(rounds);
  out.timeout_rate = engine->timeout_rate();
  std::size_t missed = 0;
  for (const core::RoundResult& r : results) {
    bool miss = false;
    for (std::size_t w = 0; w < r.observed_speeds.size(); ++w) {
      const double obs = r.observed_speeds[w];
      miss = miss || (obs > 0.0 &&
                      std::abs(r.predicted_speeds[w] - obs) / obs > 0.15);
    }
    missed += miss ? 1 : 0;
  }
  out.mispredicted_rounds =
      static_cast<double>(missed) / static_cast<double>(rounds);
  for (std::size_t w = 0; w < n; ++w) {
    const double f = engine->accounting().worker(w).wasted_fraction();
    out.max_wasted = std::max(out.max_wasted, f);
    out.mean_wasted += f / static_cast<double>(n);
  }
  return out;
}

double latency(StrategyKind kind, core::EngineParams p, std::size_t rounds) {
  return run(kind, std::move(p), rounds).latency;
}

/// Builds rows that share one anchor and set-up.
struct Rows {
  Rows(std::string a, std::string s)
      : anchor(std::move(a)), setup(std::move(s)) {}

  std::string anchor;
  std::string setup;
  std::vector<Claim> out;

  void add(std::string id, std::string metric, std::string paper,
           ClaimKind kind, ClaimBound bound, double value, double measured,
           std::string deviation = {}) {
    out.push_back({std::move(id), anchor, setup, std::move(metric),
                   std::move(paper), kind, claim_band(kind, bound, value),
                   measured, std::move(deviation)});
  }
};

// ---- one experiment per paper figure or ablation ----

std::vector<Claim> fig01_motivation() {
  Rows rows{"Fig 1",
            "LR 21000x2000, 12 workers, controlled cluster seed 42 (0-3 "
            "stragglers at 0.2x), 15 rounds, C=30, oracle speeds"};
  core::ReplicationConfig rep;
  rep.allow_data_movement = false;  // strict locality: the 3-straggler cliff
  std::vector<double> uncoded, mds10, mds9;
  for (std::size_t s = 0; s <= 3; ++s) {
    const auto spec = controlled_spec(12, s, 0.0, 42);
    auto p = params(spec, kRows, kCols, 0, 30);
    p.replication = rep;
    uncoded.push_back(latency(StrategyKind::kReplication, std::move(p), 15));
    mds10.push_back(
        latency(StrategyKind::kMds, params(spec, kRows, kCols, 10, 30), 15));
    mds9.push_back(
        latency(StrategyKind::kMds, params(spec, kRows, kCols, 9, 30), 15));
  }
  rows.add("fig01.uncoded-cliff", "uncoded 3-replication, 3 / 0 stragglers",
           "> 3x (data movement on the critical path)", ClaimKind::kRatio,
           ClaimBound::kAtLeast, 3.0, uncoded[3] / uncoded[0]);
  rows.add("fig01.mds-12-10-flat", "(12,10)-MDS, 2 / 0 stragglers",
           "≈ 1 (flat within redundancy)", ClaimKind::kRatio,
           ClaimBound::kNear, 1.0, mds10[2] / mds10[0]);
  rows.add("fig01.mds-12-10-cliff", "(12,10)-MDS, 3 / 0 stragglers",
           "≫ 1 (waits on a 5x straggler; ≫ read as ≥ 2)", ClaimKind::kRatio,
           ClaimBound::kAtLeast, 2.0, mds10[3] / mds10[0]);
  rows.add("fig01.mds-12-9-flat", "(12,9)-MDS, 3 / 0 stragglers",
           "≈ 1 (flat)", ClaimKind::kRatio, ClaimBound::kNear, 1.0,
           mds9[3] / mds9[0]);
  return rows.out;
}

/// Fraction of (sample, earlier-neighbour) pairs within 10% over a
/// 10-sample neighbourhood.
double neighborhood_stability(const std::vector<double>& s) {
  std::size_t close = 0, total = 0;
  for (std::size_t t = 10; t < s.size(); ++t) {
    for (std::size_t j = t - 10; j < t; ++j) {
      ++total;
      if (std::abs(s[j] - s[t]) <= 0.10 * s[t]) ++close;
    }
  }
  return total > 0 ? static_cast<double>(close) / static_cast<double>(total)
                   : 0.0;
}

std::size_t jump_count(const std::vector<double>& s) {
  std::size_t jumps = 0;
  for (std::size_t t = 1; t < s.size(); ++t) {
    if (std::abs(s[t] - s[t - 1]) > 0.15) ++jumps;
  }
  return jumps;
}

std::vector<Claim> fig02_traces() {
  Rows rows{"Fig 2",
            "generated cloud traces, 20 nodes x 300 samples; stable seed 8, "
            "volatile seed 9; jump = step > 0.15"};
  const std::string within =
      "speed stays within 10% for ~10 samples (most pairs: ≥ 0.5)";
  for (const bool vol : {false, true}) {
    util::Rng rng(vol ? 9 : 8);
    const auto corpus = workload::cloud_speed_corpus(
        20, 300,
        vol ? workload::volatile_cloud_config()
            : workload::stable_cloud_config(),
        rng);
    double stability = 0.0, jumps = 0.0;
    for (const auto& s : corpus) {
      stability += neighborhood_stability(s) / 20.0;
      jumps += static_cast<double>(jump_count(s)) / 20.0;
    }
    const std::string env = vol ? "volatile" : "stable";
    rows.add("fig02." + env + "-within-10",
             env + ": pairs within 10% over 10 samples", within,
             ClaimKind::kRate, ClaimBound::kAtLeast, 0.5, stability);
    rows.add("fig02." + env + "-jumps", env + ": jumps per node",
             vol ? "occasional drastic changes (≥ 1)"
                 : "no significant variation (Fig 8 regime: ≤ 1)",
             ClaimKind::kCount,
             vol ? ClaimBound::kAtLeast : ClaimBound::kAtMost, 1.0, jumps);
  }
  return rows.out;
}

std::vector<Claim> fig03_storage() {
  Rows rows{"Fig 3",
            "270 LR iterations, 12 workers, 120000 rows, k=10; volatile "
            "cloud with continuous levels ≥ 0.05, switch 0.2, seed 1234; "
            "perfect prediction for uncoded"};
  util::Rng rng(1234);
  auto cfg = workload::volatile_cloud_config();
  cfg.continuous_levels = true;
  cfg.continuous_level_min = 0.05;
  cfg.switch_prob = 0.2;
  const auto series = workload::cloud_speed_corpus(12, 270, cfg, rng);
  std::vector<std::vector<double>> speeds(270, std::vector<double>(12));
  for (std::size_t r = 0; r < 270; ++r) {
    for (std::size_t w = 0; w < 12; ++w) speeds[r][w] = series[w][r];
  }
  const auto result = baselines::run_storage_study(speeds, 120000, 10);
  rows.add("fig03.uncoded-storage", "uncoded: mean fraction stored per node",
           "≈ 0.67", ClaimKind::kStorage, ClaimBound::kNear, 0.67,
           result.uncoded_mean_fraction.back(), "storage-churn");
  rows.add("fig03.s2c2-storage", "S2C2 (12,10): fraction stored per node",
           "0.10, constant", ClaimKind::kStorage, ClaimBound::kNear, 0.10,
           result.s2c2_fraction);
  return rows.out;
}

/// Figs 6 and 7 share one scheme grid over 0-6 stragglers on the
/// controlled 12-worker cluster: latency[stragglers][scheme].
enum Scheme { kUncoded, kMds10, kMds6, kBasic6, kGeneral6, kSchemes };
using ControlledGrid = std::array<std::array<double, kSchemes>, 7>;

ControlledGrid controlled_grid(std::size_t rows, std::size_t cols,
                               std::uint64_t seed) {
  constexpr std::pair<StrategyKind, std::size_t> schemes[kSchemes] = {
      {StrategyKind::kReplication, 0}, {StrategyKind::kMds, 10},
      {StrategyKind::kMds, 6},         {StrategyKind::kS2C2Basic, 6},
      {StrategyKind::kS2C2, 6}};
  ControlledGrid g{};
  for (std::size_t s = 0; s < g.size(); ++s) {
    const auto spec = controlled_spec(12, s, 0.2, seed);
    for (std::size_t i = 0; i < kSchemes; ++i) {
      g[s][i] = latency(schemes[i].first,
                        params(spec, rows, cols, schemes[i].second, 30), 15);
    }
  }
  return g;
}

/// Worst ratio, over 0..last stragglers, of S2C2 (exact speeds) to the
/// fastest baseline at the same straggler count.
double s2c2_vs_best_baseline(const ControlledGrid& g, std::size_t last) {
  double worst = 0.0;
  for (std::size_t s = 0; s <= last; ++s) {
    const double best = std::min({g[s][kUncoded], g[s][kMds10], g[s][kMds6]});
    worst = std::max(worst, g[s][kGeneral6] / best);
  }
  return worst;
}

double general_vs_basic(const ControlledGrid& g) {
  double worst = 0.0;
  for (const auto& at : g) worst = std::max(worst, at[kGeneral6] / at[kBasic6]);
  return worst;
}

std::vector<Claim> fig06_logreg() {
  Rows rows{"Fig 6",
            "LR 21000x2000, 12 workers, controlled cluster seed 100 (0-6 "
            "stragglers at 0.2x, others within 20%), 15 rounds, C=30, oracle "
            "speeds; uncoded = 3-replication + speculation"};
  const ControlledGrid g = controlled_grid(kRows, kCols, 100);
  const double base = g[0][kUncoded];
  rows.add("fig06.s2c2-fastest-at-0",
           "S2C2 (12,6) / fastest baseline, 0 stragglers",
           "S2C2 lowest (≤ 1)", ClaimKind::kRatio, ClaimBound::kAtMost, 1.0,
           s2c2_vs_best_baseline(g, 0));
  rows.add("fig06.general-vs-basic",
           "S2C2 exact / equal speeds, worst over 0-6 stragglers",
           "general ≤ basic everywhere (≤ 1)", ClaimKind::kRatio,
           ClaimBound::kAtMost, 1.0, general_vs_basic(g));
  rows.add("fig06.mds-12-6-at-0", "(12,6)-MDS / uncoded@0, 0 stragglers",
           "≈ 2 (flat, ~2x base)", ClaimKind::kRatio, ClaimBound::kNear, 2.0,
           g[0][kMds6] / base, "uncoded-waits-on-slowest");
  rows.add("fig06.mds-12-6-at-6", "(12,6)-MDS / uncoded@0, 6 stragglers",
           "≈ 2 (flat, ~2x base)", ClaimKind::kRatio, ClaimBound::kNear, 2.0,
           g[6][kMds6] / base);
  rows.add("fig06.mds-12-10-cliff", "(12,10)-MDS, 3 / 2 stragglers",
           "explodes past 2 stragglers (≫ 1, read as ≥ 2)", ClaimKind::kRatio,
           ClaimBound::kAtLeast, 2.0, g[3][kMds10] / g[2][kMds10]);
  rows.add("fig06.uncoded-growth", "uncoded, 6 / 0 stragglers",
           "degrades sharply past 2 stragglers (≫ 1, read as ≥ 2)",
           ClaimKind::kRatio, ClaimBound::kAtLeast, 2.0, g[6][kUncoded] / base);
  return rows.out;
}

std::vector<Claim> fig07_pagerank() {
  // The operator is a power-law web graph's link matrix; its per-row work
  // is the average degree, so the cost-only job uses (nodes x 40·degree).
  util::Rng rng(2718);
  const auto graph = workload::power_law_digraph(120000, 16, rng);
  const auto link = workload::link_matrix(graph);
  const std::size_t cols = link.nnz() / link.rows() * 40;
  Rows rows{"Fig 7",
            "PageRank, power-law graph 120000 nodes seed 2718 (" +
                std::to_string(link.rows()) + "x" + std::to_string(cols) +
                " cost shape), 12 workers, controlled cluster seed 200 (0-6 "
                "stragglers), 15 rounds, C=30, oracle speeds"};
  const ControlledGrid g = controlled_grid(link.rows(), cols, 200);
  rows.add("fig07.s2c2-fastest",
           "S2C2 (12,6) / fastest baseline, worst over 0-6 stragglers",
           "S2C2 beats every baseline at every count (≤ 1)", ClaimKind::kRatio,
           ClaimBound::kAtMost, 1.0, s2c2_vs_best_baseline(g, 6));
  rows.add("fig07.general-vs-basic",
           "S2C2 exact / equal speeds, worst over 0-6 stragglers",
           "general ≤ basic (≤ 1)", ClaimKind::kRatio, ClaimBound::kAtMost,
           1.0, general_vs_basic(g));
  return rows.out;
}

/// Figs 8-11: SVM on a 10-worker cloud, (n,7) schemes on the first n
/// workers, each normalized to (10,7)-S2C2.
constexpr std::array<std::pair<const char*, const char*>, 6> kCloudSchemes = {{
    {"overdecomp", "over-decomposition"},
    {"mds-8-7", "MDS(8,7)"},
    {"mds-9-7", "MDS(9,7)"},
    {"mds-10-7", "MDS(10,7)"},
    {"s2c2-8-7", "S2C2(8,7)"},
    {"s2c2-9-7", "S2C2(9,7)"},
}};

struct CloudGrid {
  std::array<double, 6> vs_s2c2{};  // in kCloudSchemes order
  Run mds10, s2c2_10;               // the (10,7) runs, in full
};

CloudGrid cloud_grid(const core::ClusterSpec& spec10, std::size_t rounds,
                     const predict::Lstm* lstm) {
  std::array<double, 6> lat{};
  lat[0] = latency(StrategyKind::kOverDecomp,
                   params(spec10, kRows, kCols, 0, 100, lstm), rounds);
  CloudGrid g;
  for (std::size_t n = 8; n <= 10; ++n) {
    core::ClusterSpec spec = spec10;  // the fleet's first n workers
    spec.traces.erase(spec.traces.begin() + static_cast<std::ptrdiff_t>(n),
                      spec.traces.end());
    g.mds10 =
        run(StrategyKind::kMds, params(spec, kRows, kCols, 7, 100), rounds);
    g.s2c2_10 = run(StrategyKind::kS2C2,
                    params(spec, kRows, kCols, 7, 100, lstm), rounds);
    lat[n - 7] = g.mds10.latency;
    if (n < 10) lat[n - 4] = g.s2c2_10.latency;
  }
  for (std::size_t i = 0; i < lat.size(); ++i) {
    g.vs_s2c2[i] = lat[i] / g.s2c2_10.latency;
  }
  return g;
}

void add_cloud_latency_rows(Rows& rows, const std::string& fig,
                            const CloudGrid& g,
                            const std::array<double, 6>& paper,
                            const std::array<const char*, 6>& deviations) {
  for (std::size_t i = 0; i < kCloudSchemes.size(); ++i) {
    rows.add(fig + "." + kCloudSchemes[i].first,
             std::string(kCloudSchemes[i].second) + " / S2C2(10,7)",
             util::fmt(paper[i], 2), ClaimKind::kRatio, ClaimBound::kNear,
             paper[i], g.vs_s2c2[i], deviations[i]);
  }
}

std::vector<Claim> fig08_cloud_low() {
  // Near-uniform node levels with gentle wander: the paper's 0%
  // mis-prediction runs had no significant speed variation between nodes.
  auto cfg = workload::stable_cloud_config();
  cfg.regime_levels = {1.0, 0.96};
  const auto spec10 = cloud_spec(10, cfg, 77, 0.03);
  const CloudGrid g = cloud_grid(spec10, 15, nullptr);
  Rows rows{"Fig 8",
            "SVM 21000x2000, 10-worker stable cloud (levels {1.0, 0.96}) "
            "seed 77, dt 0.03 s, 15 rounds, C=100, oracle speeds"};
  add_cloud_latency_rows(rows, "fig08", g,
                         {1.00, 1.36, 1.31, 1.39, 1.23, 1.09},
                         {"", "", "", "", "", ""});
  rows.anchor = "Fig 9";
  rows.add("fig09.mds-max-waste", "(10,7)-MDS: largest per-worker waste",
           "up to ~90% on the ignored workers", ClaimKind::kRate,
           ClaimBound::kNear, 0.90, g.mds10.max_wasted,
           "persistent-slow-nodes");
  rows.add("fig09.s2c2-max-waste", "(10,7)-S2C2: largest per-worker waste",
           "0 (nothing wasted when predictions hold)", ClaimKind::kRate,
           ClaimBound::kNear, 0.0, g.s2c2_10.max_wasted);
  rows.add("fig09.mispredicted-rounds",
           "(10,7)-S2C2: rounds with a > 15% mis-prediction", "0%",
           ClaimKind::kRate, ClaimBound::kNear, 0.0,
           g.s2c2_10.mispredicted_rounds);
  return rows.out;
}

std::vector<Claim> fig10_cloud_high() {
  const auto cfg = workload::volatile_cloud_config();
  const predict::Lstm lstm = train_speed_lstm(cfg, 99);
  const auto spec10 = cloud_spec(10, cfg, 177, 0.012);
  const CloudGrid g = cloud_grid(spec10, 45, &lstm);
  Rows rows{"Fig 10",
            "SVM 21000x2000, 10-worker volatile cloud seed 177, dt 0.012 s, "
            "45 rounds, C=100; S2C2 and over-decomposition on an LSTM "
            "(seed 99), MDS prediction-blind"};
  add_cloud_latency_rows(
      rows, "fig10", g, {1.19, 1.34, 1.24, 1.17, 1.18, 1.11},
      {"network-calibration", "cheap-mispredictions", "cheap-mispredictions",
       "cheap-mispredictions", "", ""});
  rows.add("fig10.mispredicted-rounds",
           "(10,7)-S2C2: rounds with a > 15% mis-prediction", "up to 18%",
           ClaimKind::kRate, ClaimBound::kNear, 0.18,
           g.s2c2_10.mispredicted_rounds);
  const auto& v = g.vs_s2c2;
  rows.add("fig10.mds-spare-nodes",
           "max(MDS(10,7)/MDS(9,7), MDS(9,7)/MDS(8,7))",
           "MDS improves with spare nodes (< 1)", ClaimKind::kRatio,
           ClaimBound::kAtMost, 1.0, std::max(v[3] / v[2], v[2] / v[1]));
  rows.add("fig10.s2c2-fastest",
           "S2C2(10,7) / min(MDS(10,7), over-decomposition)",
           "S2C2(10,7) fastest overall (< 1)", ClaimKind::kRatio,
           ClaimBound::kAtMost, 1.0, 1.0 / std::min(v[3], v[0]));
  rows.anchor = "Fig 11";
  rows.add("fig11.waste-ratio",
           "(10,7) mean per-worker waste, MDS / S2C2",
           "≈ 1.47 (MDS wastes ~47% more)", ClaimKind::kRatio,
           ClaimBound::kNear, 1.47,
           g.mds10.mean_wasted / g.s2c2_10.mean_wasted, "waste-accounting");
  return rows.out;
}

std::vector<Claim> fig12_poly() {
  // The paper's master is one node doing the full bilinear decode; a slow
  // master (relative to the workers) models that unsqueezed stage.
  auto with_master = [](core::ClusterSpec s) {
    s.master_flops = 1e8;
    return s;
  };
  auto poly = [](StrategyKind kind, const core::ClusterSpec& spec,
                 const predict::Lstm* lstm) {
    auto p = params(spec, 6000, 6000, 0, 40, lstm);
    p.a_blocks = 3;
    return latency(kind, std::move(p), 10);
  };
  const auto low =
      with_master(cloud_spec(12, workload::stable_cloud_config(), 31, 60.0));
  const double low_ratio = poly(StrategyKind::kPolyConventional, low, nullptr) /
                           poly(StrategyKind::kPoly, low, nullptr);
  const auto high_cfg = workload::volatile_cloud_config();
  const predict::Lstm lstm = train_speed_lstm(high_cfg, 131);
  const auto high = with_master(cloud_spec(12, high_cfg, 231, 60.0));
  const double high_ratio =
      poly(StrategyKind::kPolyConventional, high, nullptr) /
      poly(StrategyKind::kPoly, high, &lstm);
  Rows rows{"Fig 12",
            "Hessian AᵀDA, A 6000x6000, 12 workers, a=b=3 (any 9 decode), "
            "master 1e8 flop/s, 10 rounds, C=40; low: stable seed 31, "
            "oracle; high: volatile seed 231, LSTM seed 131"};
  rows.add("fig12.low", "conventional polynomial / polynomial + S2C2, low",
           "1.19 (19% cut)", ClaimKind::kRatio, ClaimBound::kNear, 1.19,
           low_ratio, "poly-unsqueezed-stages");
  rows.add("fig12.high", "conventional polynomial / polynomial + S2C2, high",
           "1.14 (14% cut)", ClaimKind::kRatio, ClaimBound::kNear, 1.14,
           high_ratio);
  return rows.out;
}

std::vector<Claim> fig13_scale() {
  // Wide rows keep worker compute dominant over the k=40 master decode.
  constexpr std::size_t rows50 = 100000, cols50 = 10000;
  auto low_cfg = workload::stable_cloud_config();
  low_cfg.regime_levels = {1.0, 0.96};
  const auto low = cloud_spec(50, low_cfg, 41, 0.03);
  const double low_ratio =
      latency(StrategyKind::kMds, params(low, rows50, cols50, 40, 120), 15) /
      latency(StrategyKind::kS2C2, params(low, rows50, cols50, 40, 120), 15);
  // Trace samples are one round long (~50 ms with the wide rows), so the
  // observed speeds match the trained dynamics.
  const auto high_cfg = workload::volatile_cloud_config();
  const predict::Lstm lstm = train_speed_lstm(high_cfg, 141);
  const auto high = cloud_spec(50, high_cfg, 241, 0.05);
  const double high_ratio =
      latency(StrategyKind::kMds, params(high, rows50, cols50, 40, 120), 15) /
      latency(StrategyKind::kS2C2,
              params(high, rows50, cols50, 40, 120, &lstm), 15);
  Rows rows{"Fig 13",
            "SVM 100000x10000, (50,40) code, 50 workers, 15 rounds, C=120; "
            "low: stable (levels {1.0, 0.96}) seed 41, oracle; high: "
            "volatile seed 241, dt 0.05 s, LSTM seed 141"};
  rows.add("fig13.low", "MDS(50,40) / S2C2(50,40), low",
           "1.25 (25% cut, the ideal 50/40)", ClaimKind::kRatio,
           ClaimBound::kNear, 1.25, low_ratio);
  rows.add("fig13.high", "MDS(50,40) / S2C2(50,40), high", "1.12 (12% cut)",
           ClaimKind::kRatio, ClaimBound::kNear, 1.12, high_ratio);
  return rows.out;
}

std::vector<Claim> prediction_accuracy() {
  // Mixed corpus: per-node volatility varies like a real fleet, and every
  // node carries a periodic co-tenant pattern (random phase) that gives a
  // recurrent model its edge over one-lag ARIMA.
  util::Rng rng(2025);
  std::vector<std::vector<double>> corpus;
  auto vol = workload::volatile_cloud_config();
  auto sta = workload::stable_cloud_config();
  for (auto* c : {&vol, &sta}) {
    c->periodic_amplitude = 0.2;
    c->periodic_period = 12.0;
    c->periodic_period_jitter = 0.35;
  }
  for (int i = 0; i < 60; ++i) {
    corpus.push_back(
        workload::cloud_speed_series(250, i < 30 ? vol : sta, rng));
  }
  rng.shuffle(corpus);
  predict::EvaluationConfig cfg;
  cfg.lstm_train.epochs = 60;
  const auto reports = predict::evaluate_predictors(corpus, cfg);
  // Reports: LSTM, ARIMA(1,0,0), ARIMA(2,0,0), ARIMA(1,1,1), last-value.
  const double lstm = reports[0].mape;
  const double ar1 = reports[1].mape;
  const double best_arima = std::min({ar1, reports[2].mape, reports[3].mape});
  Rows rows{"§6.1",
            "60 generated traces x 250 samples (30 volatile, 30 stable, "
            "periodic amplitude 0.2, period 12 ± 35%) seed 2025, 80/20 "
            "split, LSTM h=4, 60 epochs"};
  rows.add("pred.lstm-mape", "LSTM(h=4) one-step MAPE (%)", "16.7%",
           ClaimKind::kMape, ClaimBound::kNear, 16.7, lstm,
           "predictable-traces");
  rows.add("pred.arima-mape", "ARIMA(1,0,0) one-step MAPE (%)",
           "≈ 21.7% (LSTM + 5 points)", ClaimKind::kMape, ClaimBound::kNear,
           21.7, ar1, "predictable-traces");
  rows.add("pred.lstm-vs-arima", "ARIMA(1,0,0) − LSTM MAPE (points)",
           "≈ 5 points", ClaimKind::kMape, ClaimBound::kNear, 5.0,
           ar1 - lstm);
  rows.add("pred.lstm-vs-best-arima", "LSTM / best ARIMA variant MAPE",
           "LSTM beats every ARIMA (< 1)", ClaimKind::kRatio,
           ClaimBound::kAtMost, 1.0, lstm / best_arima);
  return rows.out;
}

std::vector<Claim> ablation_adaptivity() {
  const auto cfg = workload::volatile_cloud_config();
  const predict::Lstm lstm = train_speed_lstm(cfg, 71);
  const auto spec = cloud_spec(10, cfg, 72, 0.012);
  const double adaptive = latency(
      StrategyKind::kS2C2, params(spec, kRows, kCols, 7, 100, &lstm), 40);
  auto frozen = params(spec, kRows, kCols, 7, 100);
  frozen.oracle_speeds = false;
  frozen.predictor = std::make_unique<predict::FrozenSpeedPredictor>(10, 3);
  const double static_split =
      latency(StrategyKind::kS2C2, std::move(frozen), 40);
  Rows rows{"§8 (ablation)",
            "(10,7)-S2C2, SVM 21000x2000, volatile cloud seed 72, dt 0.012 "
            "s, 40 rounds, C=100; LSTM seed 71 vs speeds frozen after a "
            "3-round warmup"};
  rows.add("abl.static-vs-adaptive", "static split / adaptive S2C2 (LSTM)",
           "a static split is slower (> 1)", ClaimKind::kRatio,
           ClaimBound::kAtLeast, 1.0, static_split / adaptive);
  return rows.out;
}

std::vector<Claim> ablation_granularity() {
  const auto spec = controlled_spec(12, 2, 0.2, 300);
  double lo = kInf, hi = 0.0;
  for (std::size_t c : {24u, 48u, 96u, 192u}) {
    const double l =
        latency(StrategyKind::kS2C2, params(spec, kRows, kCols, 6, c), 15);
    lo = std::min(lo, l);
    hi = std::max(hi, l);
  }
  Rows rows{"Alg. 1 (ablation)",
            "(12,6)-S2C2, LR 21000x2000, controlled cluster seed 300 (2 "
            "stragglers at 0.2x), 15 rounds, oracle; C ∈ {24, 48, 96, 192}"};
  rows.add("abl.granularity-flat", "slowest / fastest latency over C ≥ 24",
           "latency flattens past C = 24 (≈ 1)", ClaimKind::kRatio,
           ClaimBound::kNear, 1.0, hi / lo);
  return rows.out;
}

std::vector<Claim> ablation_redundancy() {
  const auto spec = controlled_spec(12, 0, 0.0, 400);
  auto s2c2 = [&](std::size_t k) {
    return latency(StrategyKind::kS2C2, params(spec, kRows, kCols, k, 48), 15);
  };
  const double base = s2c2(11);
  double worst = 0.0;
  for (std::size_t k : {6u, 8u, 10u, 11u}) {
    worst = std::max(worst, s2c2(k) / base);
  }
  Rows rows{"§4 (ablation)",
            "S2C2(12,k), k ∈ {6, 8, 10, 11}, LR 21000x2000, controlled "
            "cluster seed 400, 0 stragglers, 15 rounds, C=48, oracle"};
  rows.add("abl.redundancy-free", "worst S2C2(12,k) / S2C2(12,11)",
           "≈ 1 at 0 stragglers for every k", ClaimKind::kRatio,
           ClaimBound::kNear, 1.0, worst);
  return rows.out;
}

std::vector<Claim> ablation_timeout() {
  const auto cfg = workload::volatile_cloud_config();
  const predict::Lstm lstm = train_speed_lstm(cfg, 55);
  const auto spec = cloud_spec(10, cfg, 66, 0.012);
  auto with_factor = [&](double factor) {
    auto p = params(spec, kRows, kCols, 7, 100, &lstm);
    p.timeout_factor = factor;
    return run(StrategyKind::kS2C2, std::move(p), 20);
  };
  const Run paper = with_factor(1.15);
  double best = paper.latency;
  for (double f : {1.0, 1.05, 1.3, 1.5, 2.0, 3.0}) {
    best = std::min(best, with_factor(f).latency);
  }
  Rows rows{"§4.3 (ablation)",
            "(10,7)-S2C2, SVM 21000x2000, volatile cloud seed 66, dt 0.012 "
            "s, 20 rounds, C=100, LSTM seed 55; factors 1.0-3.0"};
  rows.add("abl.timeout-minimum", "latency at 1.15 / best factor's latency",
           "1.15 sits at the latency minimum (within 2%)", ClaimKind::kRatio,
           ClaimBound::kAtMost, 1.02, paper.latency / best);
  rows.add("abl.timeout-rate", "rounds in which the timeout fires, at 1.15",
           "≈ 3.5% (2-5% of rounds)", ClaimKind::kRate, ClaimBound::kNear,
           0.035, paper.timeout_rate, "volatile-timeouts");
  return rows.out;
}

}  // namespace

Band claim_band(ClaimKind kind, ClaimBound bound, double value) {
  if (bound == ClaimBound::kAtLeast) return {value, kInf};
  if (bound == ClaimBound::kAtMost) return {-kInf, value};
  switch (kind) {
    case ClaimKind::kRatio: return {value * 0.9, value * 1.1};
    case ClaimKind::kMape: return {std::max(0.0, value - 5.0), value + 5.0};
    case ClaimKind::kRate:
    case ClaimKind::kStorage:
      return {std::max(0.0, value - 0.05), value + 0.05};
    case ClaimKind::kCount: break;  // stated one-sided only
  }
  return {value, value};
}

ClaimStatus claim_status(const Claim& claim,
                         std::span<const Deviation> deviations) {
  // NaN (a failed measurement) compares false and lands outside the band.
  const bool inside =
      claim.measured >= claim.band.lo && claim.measured <= claim.band.hi;
  if (claim.deviation.empty()) {
    return inside ? ClaimStatus::kHolds : ClaimStatus::kUnexplained;
  }
  const bool listed =
      std::any_of(deviations.begin(), deviations.end(),
                  [&](const Deviation& d) { return d.id == claim.deviation; });
  if (!listed) return ClaimStatus::kUnknownDeviation;
  return inside ? ClaimStatus::kStaleDeviation : ClaimStatus::kKnownDeviation;
}

std::vector<std::string> claim_failures(std::span<const Claim> claims,
                                        std::span<const Deviation> deviations) {
  std::vector<std::string> out;
  for (const Claim& c : claims) {
    switch (claim_status(c, deviations)) {
      case ClaimStatus::kHolds:
      case ClaimStatus::kKnownDeviation:
        break;
      case ClaimStatus::kUnexplained:
        out.push_back(c.id + ": measured " + util::fmt(c.measured, 3) +
                      " is outside " + band_text(c.band) +
                      " and cites no deviation");
        break;
      case ClaimStatus::kUnknownDeviation:
        out.push_back(c.id + ": cites unknown deviation `" + c.deviation +
                      "`");
        break;
      case ClaimStatus::kStaleDeviation:
        out.push_back(c.id + ": holds but still cites deviation `" +
                      c.deviation + "`");
        break;
    }
  }
  return out;
}

const std::vector<Deviation>& known_deviations() {
  static const std::vector<Deviation> list = {
      {"synthetic-inputs", "Synthetic inputs",
       "Speed traces are generated (AR(1) wander + Markov regime switches "
       "calibrated to Fig 2's observations), not the paper's measured "
       "DigitalOcean data; datasets are Gaussian-blob stand-ins with the "
       "paper's operator *shapes*, not gisette/Toronto downloads. All "
       "comparisons are therefore relative latencies, never absolute "
       "seconds."},
      {"timeout-reference", "Timeout reference point",
       "The §4.3 deadline is computed from the k-th fastest response rather "
       "than the paper's mean of the first k — see README \"Timeout-window "
       "semantics\" for why the average misfires under strong speed "
       "spread."},
      {"functional-scale", "Functional scale",
       "Job-driver operators are small (hundreds of rows) so every decode "
       "is verified end to end; the paper's 760 MB/node operators appear "
       "only in cost-only cells (the claims table and the scenario "
       "matrix)."},
      {"uncoded-exact", "Uncoded baselines compute exactly",
       "Replication and over-decomposition produce the true product by "
       "construction, so the driver simulates only their latency; their "
       "`solution_error` is exactly 0 rather than measured."},
      {"graph-filter-fixed-point", "Graph filtering is run to a fixed point",
       "The paper's n-hop filter has a fixed hop count; the driver runs the "
       "geometric diffusion variant so all four applications share one "
       "convergence-driven job semantics."},
      {"predictor-budget", "Predictor budget",
       "The LSTM is the paper's 4-hidden-unit architecture but trained "
       "in-process on a short synthetic corpus (per-column seed), not "
       "offline on weeks of cloud measurements."},
      {"storage-churn", "Fig 3: less allocation drift on generated traces",
       "An uncoded node stores every row range proportional allocation ever "
       "gives it. The generated traces drift those boundaries across 37% of "
       "the matrix in 270 iterations (0.23 after 31, still rising), the "
       "measured ones across 67%. Uncoded storage still grows, to 3.7x the "
       "flat S2C2 1/k."},
      {"uncoded-waits-on-slowest",
       "Fig 6: node spread shrinks the (12,6)-MDS base ratio",
       "With no stragglers the uncoded round waits on the slowest node (0.83 "
       "in the 20% spread), (12,6)-MDS does twice the work per node but "
       "waits on the 6th fastest (0.98): 2 x 0.83 / 0.98 = 1.69. At 6 "
       "stragglers the ~2x holds (`fig06.mds-12-6-at-6`)."},
      {"persistent-slow-nodes", "Fig 9: the same three nodes lose every round",
       "With no regime switches the same three nodes (workers 6, 7, 9) are "
       "the slowest in all 15 rounds, so (10,7)-MDS discards all of their "
       "work. The paper's ~90% means its slowest set changed now and then."},
      {"cheap-mispredictions", "Fig 10: a mis-prediction costs S2C2 little",
       "S2C2 with the LSTM is 4.3% slower than with oracle speeds on these "
       "traces: recovery waits 15% past the k-th response and reassigns "
       "coded chunks without data movement. In the paper the MDS(10,7) "
       "ratio falls from 1.39 (Fig 8) to 1.17, a ~19% cost. So every MDS "
       "ratio sits ~10% above the paper's; the orderings and the per-round "
       "mis-prediction rate hold."},
      {"network-calibration",
       "Fig 10: over-decomposition's data moves are nearly free",
       "Over-decomposition moves data when its predictions miss. On the "
       "simulated 10 Gb/s network that costs little (1.06x S2C2); the same "
       "run at 1 Gb/s is 5.1x. The network model is not calibrated to the "
       "paper's cloud."},
      {"waste-accounting", "Fig 11: waste counts discarded work only",
       "S2C2 discards work only when the timeout cancels a worker: 1.5% of "
       "its work against 27.2% for (10,7)-MDS (about (n-k)/n). A 1.47 ratio "
       "needs S2C2 to waste ~18.5%, all the work of every timed-out round "
       "(18%), so the paper's metric counts more than discarded work; "
       "`sim::Accounting` counts only that."},
      {"poly-unsqueezed-stages",
       "Fig 12: little of the poly round is unsqueezed",
       "Only the master's decode stays unsqueezed, 11-15% of a "
       "low-volatility round at master_flops = 1e8, and the worker phase "
       "alone speeds up 1.40x (proportional shares over nodes at {1.0, "
       "0.85, 0.7} beat waiting on the 9th fastest). The paper's diag(x) "
       "scaling and decode took a larger share. `fig12.high` holds."},
      {"predictable-traces", "§6.1: generated traces are easier to predict",
       "Within a regime the generated speed moves ~2% per sample (AR(1), "
       "σ 0.008-0.02), so even last-value scores 7.1% MAPE and every model "
       "errs less than on measured traces. The ordering holds: the LSTM "
       "beats every ARIMA, 3.6 points ahead of ARIMA(1,0,0)."},
      {"volatile-timeouts",
       "§4.3: timeouts follow the volatile mis-prediction rate",
       "On the volatile traces 20% of rounds carry a > 15% mis-prediction "
       "(`fig10.mispredicted-rounds`, the paper's 18%), and a node that "
       "drops mid-round misses the 1.15x deadline: the timeout fires in "
       "15% of rounds, not 2-5%. The factor 1.15 still sits at the latency "
       "minimum."},
  };
  return list;
}

std::string claims_markdown(std::span<const Claim> claims,
                            std::span<const Deviation> deviations) {
  std::string md =
      "Each row is measured at the paper's geometry by `run_claims` "
      "(`src/report/claims.cpp`) and checked against an acceptance band "
      "derived from the paper's statement by one rule per metric kind, "
      "never from the measurement:\n\n"
      "| kind | band for \"≈ v\" |\n|---|---|\n"
      "| ratio (normalized latency or work) | v ± 10% of v |\n"
      "| rate (fraction of rounds, samples or work) | v ± 0.05 |\n"
      "| MAPE (percent) | v ± 5 points |\n"
      "| storage (fraction of the matrix per node) | v ± 0.05 |\n"
      "| count (events per node) | one-sided statements only |\n\n"
      "One-sided statements (\"> v\", \"≫ 1\" read as ≥ 2, \"≤ v\") use "
      "v itself as the bound. A row outside its band must cite a known "
      "deviation with a written cause; a row that cites one but holds "
      "fails as stale. `repro_cli --report` exits 1 on any failing row.\n\n"
      "| id | anchor | set-up | metric | paper | band | measured | status "
      "|\n|---|---|---|---|---|---|---|---|\n";
  for (const Claim& c : claims) {
    std::string status;
    switch (claim_status(c, deviations)) {
      case ClaimStatus::kHolds: status = "holds"; break;
      case ClaimStatus::kKnownDeviation:
        status = "deviation `" + c.deviation + "`";
        break;
      case ClaimStatus::kUnexplained: status = "**FAILS: unexplained**"; break;
      case ClaimStatus::kUnknownDeviation:
        status = "**FAILS: unknown deviation `" + c.deviation + "`**";
        break;
      case ClaimStatus::kStaleDeviation:
        status = "**FAILS: stale deviation `" + c.deviation + "`**";
        break;
    }
    md += "| `" + c.id + "` | " + c.anchor + " | " + c.setup + " | " +
          c.metric + " | " + c.paper + " | " +
          band_text(c.band) + " | " + util::fmt(c.measured, 3) + " | " +
          status + " |\n";
  }
  return md;
}

std::string deviations_markdown(std::span<const Deviation> deviations) {
  std::string md;
  for (std::size_t i = 0; i < deviations.size(); ++i) {
    const Deviation& d = deviations[i];
    md += std::to_string(i + 1) + ". **" + d.title + "** (`" + d.id +
          "`). " + d.cause + "\n";
  }
  return md;
}

std::vector<Claim> run_claims(std::size_t jobs) {
  using Experiment = std::vector<Claim> (*)();
  static constexpr Experiment kExperiments[] = {
      fig01_motivation,    fig02_traces,        fig03_storage,
      fig06_logreg,        fig07_pagerank,      fig08_cloud_low,
      fig10_cloud_high,    fig12_poly,          fig13_scale,
      prediction_accuracy, ablation_adaptivity, ablation_granularity,
      ablation_redundancy, ablation_timeout,
  };
  constexpr std::size_t count = std::size(kExperiments);
  std::vector<std::vector<Claim>> slots(count);
  util::parallel_for(count, jobs,
                     [&](std::size_t i) { slots[i] = kExperiments[i](); });
  std::vector<Claim> out;
  for (auto& slot : slots) {
    for (Claim& c : slot) out.push_back(std::move(c));
  }
  return out;
}

}  // namespace s2c2::report
