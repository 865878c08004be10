// End-to-end integration: generated cloud traces -> trained LSTM predictor
// -> S2C2 engine, asserting both numerical correctness and the paper's
// qualitative latency claims. Whole application jobs run through
// harness::run_job (apps_test, job_driver_test).
#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/predict/evaluation.h"
#include "src/predict/lstm.h"
#include "src/util/rng.h"
#include "src/workload/trace_gen.h"

namespace s2c2 {
namespace {

TEST(Integration, LstmPredictorDrivesS2C2EndToEnd) {
  // 1. Generate a cloud environment and train the LSTM on historical data.
  util::Rng rng(2024);
  const auto history = workload::cloud_speed_corpus(
      20, 100, workload::stable_cloud_config(), rng);
  predict::Lstm lstm(1, 4, 7);
  predict::Lstm::TrainConfig train;
  train.epochs = 40;
  lstm.train(history, train);

  // 2. Fresh traces for the live cluster.
  const auto live = workload::cloud_speed_corpus(
      10, 60, workload::stable_cloud_config(), rng);
  core::ClusterSpec spec;
  spec.traces = workload::traces_from_series(live, 0.5);
  spec.worker_flops = 1e7;

  // 3. Run a functional S2C2 job with the LSTM predictor. The operator is
  // large enough that compute dominates communication, so the speeds the
  // master observes (and feeds the LSTM) reflect the actual traces.
  util::Rng drng(5);
  const auto a = linalg::Matrix::random_uniform(2100, 400, drng);
  linalg::Vector x(400);
  for (auto& v : x) v = drng.normal();
  const auto truth = a.matvec(x);

  core::EngineConfig cfg;
  cfg.strategy = core::StrategyKind::kS2C2;
  cfg.chunks_per_partition = 14;
  core::CodedComputeEngine engine(
      core::CodedMatVecJob(a, 10, 7, 14), spec, cfg,
      std::make_unique<predict::LstmPredictor>(10, lstm));

  double latency = 0.0;
  for (int round = 0; round < 20; ++round) {
    const auto r = engine.run_round(x);
    ASSERT_TRUE(r.y.has_value());
    for (std::size_t i = 0; i < truth.size(); ++i) {
      ASSERT_NEAR((*r.y)[i], truth[i], 1e-6) << "round " << round;
    }
    latency += r.stats.latency();
  }
  EXPECT_GT(latency, 0.0);
  // Stable environment: the LSTM should keep timeouts well below always.
  EXPECT_LT(engine.timeout_rate(), 0.5);
}

TEST(Integration, S2C2BeatsMdsOnCloudTracesEndToEnd) {
  util::Rng rng(11);
  const auto series = workload::cloud_speed_corpus(
      10, 80, workload::stable_cloud_config(), rng);
  core::ClusterSpec spec;
  spec.traces = workload::traces_from_series(series, 0.5);
  spec.worker_flops = 1e7;

  auto run = [&](core::StrategyKind s) {
    core::EngineConfig cfg;
    cfg.strategy = s;
    cfg.chunks_per_partition = 14;
    cfg.oracle_speeds = true;
    auto job = core::CodedMatVecJob::cost_only(2100, 400, 10, 7, 14);
    core::CodedComputeEngine engine(job, spec, cfg);
    return core::total_latency(engine.run_rounds(15));
  };
  const double mds = run(core::StrategyKind::kMds);
  const double s2c2 = run(core::StrategyKind::kS2C2);
  // Paper Fig 8: (10,7)-S2C2 beats (10,7)-MDS by ~39% in the stable cloud.
  EXPECT_GT((mds - s2c2) / mds, 0.2);
}

}  // namespace
}  // namespace s2c2
