// Full cloud-deployment walkthrough: generate a shared-tenancy cluster,
// train the LSTM speed predictor on historical traces, then run cost-only
// rounds at the paper's SVM operator shape under the strategies it
// compares — a miniature of the §7.2 evaluation campaign.
//
//   build/examples/cloud_simulation
#include <iostream>

#include "src/core/engine.h"
#include "src/core/overdecomp_engine.h"
#include "src/predict/lstm.h"
#include "src/util/table.h"
#include "src/workload/trace_gen.h"

int main() {
  using namespace s2c2;
  std::cout << "Cloud simulation: 10 shared workers, volatile speeds, "
               "LSTM-scheduled S2C2\n\n";

  const auto env = workload::volatile_cloud_config();

  // 1. Train the speed predictor on historical fleet telemetry.
  std::cout << "Training LSTM speed predictor on 24 historical traces...\n";
  util::Rng hist_rng(1);
  const auto history = workload::cloud_speed_corpus(24, 150, env, hist_rng);
  predict::Lstm lstm(1, 4, 99);
  predict::Lstm::TrainConfig tc;
  tc.epochs = 120;
  tc.bptt_window = 48;
  const double mse = lstm.train(history, tc);
  std::cout << "  final training MSE " << util::fmt(mse, 5) << "\n\n";

  // 2. The live cluster.
  util::Rng live_rng(2);
  core::ClusterSpec spec;
  spec.traces = workload::traces_from_series(
      workload::cloud_speed_corpus(10, 400, env, live_rng), 0.012);

  const std::size_t rows = 21000, cols = 2000, chunks = 100, rounds = 30;

  auto coded = [&](core::StrategyKind strategy, std::size_t k) {
    core::EngineConfig cfg;
    cfg.strategy = strategy;
    cfg.chunks_per_partition = chunks;
    auto job = core::CodedMatVecJob::cost_only(rows, cols, 10, k, chunks);
    core::CodedComputeEngine engine(
        job, spec, cfg, std::make_unique<predict::LstmPredictor>(10, lstm));
    const auto results = engine.run_rounds(rounds);
    struct Out {
      double latency;
      double timeouts;
      double waste;
    };
    return Out{core::total_latency(results) / rounds, engine.timeout_rate(),
               engine.accounting().mean_wasted_fraction()};
  };

  const auto mds = coded(core::StrategyKind::kMds, 7);
  const auto s2c2 = coded(core::StrategyKind::kS2C2, 7);

  core::OverDecompositionEngine od(
      rows, cols, spec, {},
      std::make_unique<predict::LstmPredictor>(10, lstm));
  const auto od_results = od.run_rounds(rounds);
  const double od_latency = core::total_latency(od_results) / rounds;

  util::Table t({"strategy", "mean round latency (ms)", "recovery rounds",
                 "mean wasted work"});
  t.add_row({"(10,7)-MDS conventional", util::fmt(mds.latency * 1e3, 2),
             util::fmt(100.0 * mds.timeouts, 0) + "%",
             util::fmt(100.0 * mds.waste, 1) + "%"});
  t.add_row({"over-decomposition", util::fmt(od_latency * 1e3, 2), "-",
             "0%"});
  t.add_row({"(10,7)-S2C2 + LSTM", util::fmt(s2c2.latency * 1e3, 2),
             util::fmt(100.0 * s2c2.timeouts, 0) + "%",
             util::fmt(100.0 * s2c2.waste, 1) + "%"});
  t.print();

  std::cout << "\nS2C2 vs conventional MDS: "
            << util::fmt(100.0 * (mds.latency - s2c2.latency) / mds.latency, 1)
            << "% lower latency, "
            << util::fmt(mds.waste / std::max(s2c2.waste, 1e-9), 0)
            << "x less wasted computation (paper Figs 10-11).\n";
  return 0;
}
