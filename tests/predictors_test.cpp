// Tests for the prediction stack: simple predictors and the ARIMA family.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "src/predict/arima.h"
#include "src/predict/evaluation.h"
#include "src/predict/lstm.h"
#include "src/predict/predictors.h"
#include "src/util/rng.h"
#include "src/workload/trace_gen.h"
#include "tests/test_util.h"

namespace s2c2::predict {
namespace {

TEST(LastValue, PredictsLastObservation) {
  LastValuePredictor p(2);
  EXPECT_DOUBLE_EQ(p.predict(0), 1.0);  // prior before any observation
  p.observe(0, 0.4);
  EXPECT_DOUBLE_EQ(p.predict(0), 0.4);
  EXPECT_DOUBLE_EQ(p.predict(1), 1.0);
  EXPECT_THROW(p.observe(5, 1.0), std::invalid_argument);
}

TEST(EqualSpeed, AlwaysOne) {
  EqualSpeedPredictor p;
  p.observe(0, 0.2);
  EXPECT_DOUBLE_EQ(p.predict(0), 1.0);
}

TEST(Noisy, CorruptsAtConfiguredRate) {
  auto inner = std::make_unique<LastValuePredictor>(1);
  inner->observe(0, 1.0);
  test::NoisyPredictor p(std::move(inner), 0.5, 0.3, 42);
  int corrupted = 0;
  for (int i = 0; i < 2000; ++i) {
    const double v = p.predict(0);
    if (std::abs(v - 1.0) > 1e-12) ++corrupted;
  }
  EXPECT_NEAR(corrupted / 2000.0, 0.5, 0.06);
}

TEST(Noisy, NeverNegative) {
  auto inner = std::make_unique<LastValuePredictor>(1);
  inner->observe(0, 0.1);
  test::NoisyPredictor p(std::move(inner), 1.0, 2.0, 7);  // 200% error
  for (int i = 0; i < 100; ++i) EXPECT_GE(p.predict(0), 0.0);
}

TEST(Predictors, PredictAllMatchesPredict) {
  // Two copies of each predictor see the same speeds, one through the
  // batched calls and one through the per-worker calls; their predictions
  // must agree bit for bit. The noisy copies share a seed, so this also
  // pins that the batched defaults draw in ascending worker order.
  static constexpr std::size_t n = 9;
  const Lstm model(1, 4, 21);
  const auto health = [](std::size_t w) {
    return w % 3 == 0 ? 0.5 : (w % 3 == 1 ? 2.0 : -1.0);
  };
  const std::vector<
      std::pair<const char*, std::function<std::unique_ptr<SpeedPredictor>()>>>
      kinds = {
          {"last-value", [] { return std::make_unique<LastValuePredictor>(n); }},
          {"health(LSTM)",
           [&] {
             return std::make_unique<HealthInformedPredictor>(
                 std::make_unique<LstmPredictor>(n, model), health);
           }},
          {"frozen",
           [] { return std::make_unique<FrozenSpeedPredictor>(n, 2); }},
          {"noisy",
           [] {
             return std::make_unique<test::NoisyPredictor>(
                 std::make_unique<LastValuePredictor>(n), 0.5, 0.3, 5);
           }},
      };
  const auto bits = [](double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  for (const auto& [label, make] : kinds) {
    SCOPED_TRACE(label);
    const auto batched = make();
    const auto single = make();
    util::Rng rng(3);
    std::vector<double> speeds(n), out(n);
    for (int round = 0; round < 4; ++round) {
      for (double& s : speeds) s = rng.uniform(0.0, 1.5);
      batched->observe_all(speeds);
      for (std::size_t w = 0; w < n; ++w) single->observe(w, speeds[w]);
      batched->predict_all(out);
      for (std::size_t w = 0; w < n; ++w) {
        EXPECT_EQ(bits(out[w]), bits(single->predict(w)))
            << "round " << round << " worker " << w;
      }
    }
  }
}

TEST(ArFit, RecoversAr1Coefficient) {
  // Simulate y_t = 0.3 + 0.6 y_{t-1} + small noise.
  util::Rng rng(11);
  std::vector<std::vector<double>> corpus;
  for (int s = 0; s < 5; ++s) {
    std::vector<double> y{0.75};
    for (int t = 1; t < 400; ++t) {
      y.push_back(0.3 + 0.6 * y.back() + rng.normal(0.0, 0.01));
    }
    corpus.push_back(std::move(y));
  }
  const ArModel m = fit_ar(corpus, 1);
  EXPECT_NEAR(m.phi[0], 0.6, 0.05);
  EXPECT_NEAR(m.intercept, 0.3, 0.05);
  // Forecast from history {0.8}: 0.3 + 0.6*0.8 = 0.78.
  EXPECT_NEAR(m.forecast(std::vector<double>{0.8}), 0.78, 0.05);
}

TEST(ArFit, Ar2UsesTwoLags) {
  const ArModel m{{0.5, 0.25}, 0.1};
  // history.back() is most recent: y_{t-1}=0.8, y_{t-2}=0.4.
  const double f = m.forecast(std::vector<double>{0.4, 0.8});
  EXPECT_NEAR(f, 0.1 + 0.5 * 0.8 + 0.25 * 0.4, 1e-12);
}

TEST(ArFit, ShortHistoryFallsBackToLastValue) {
  const ArModel m{{0.5, 0.25}, 0.1};
  EXPECT_DOUBLE_EQ(m.forecast(std::vector<double>{0.9}), 0.9);
  EXPECT_DOUBLE_EQ(m.forecast(std::vector<double>{}), 1.0);
}

TEST(ArFit, RejectsTinyCorpus) {
  EXPECT_THROW(fit_ar({{1.0, 2.0}}, 3), std::invalid_argument);
}

TEST(Arima11, FitsMa1ProcessBetterThanWhiteNoiseGuess) {
  // z_t = e_t + 0.7 e_{t-1} (pure MA(1), zero mean).
  util::Rng rng(13);
  std::vector<std::vector<double>> corpus;
  for (int s = 0; s < 4; ++s) {
    std::vector<double> z;
    double e_prev = 0.0;
    for (int t = 0; t < 500; ++t) {
      const double e = rng.normal(0.0, 0.1);
      z.push_back(e + 0.7 * e_prev + 1.0);  // mean 1.0
      e_prev = e;
    }
    corpus.push_back(std::move(z));
  }
  const ArimaModel m = fit_arima11(corpus, 0);
  EXPECT_EQ(m.d, 0u);
  EXPECT_NEAR(m.theta, 0.7, 0.15);
  EXPECT_NEAR(std::abs(m.phi), 0.0, 0.2);
}

TEST(Arima11, DifferencedForecastTracksTrend) {
  // Linear ramp: first difference is constant — ARIMA(1,1,1) should
  // forecast continuation of the ramp.
  std::vector<std::vector<double>> corpus;
  std::vector<double> ramp;
  for (int t = 0; t < 200; ++t) ramp.push_back(0.5 + 0.002 * t);
  corpus.push_back(ramp);
  corpus.push_back(ramp);
  const ArimaModel m = fit_arima11(corpus, 1);
  const double f = m.forecast(ramp);
  EXPECT_NEAR(f, ramp.back() + 0.002, 5e-3);
}

TEST(Evaluation, ReportsAllModelsOnCloudCorpus) {
  util::Rng rng(17);
  const auto corpus =
      workload::cloud_speed_corpus(10, 120, workload::stable_cloud_config(),
                                   rng);
  EvaluationConfig cfg;
  cfg.lstm_train.epochs = 5;  // keep the unit test fast
  const auto reports = evaluate_predictors(corpus, cfg);
  ASSERT_EQ(reports.size(), 5u);
  EXPECT_EQ(reports[0].model, "LSTM(h=4)");
  for (const auto& r : reports) {
    EXPECT_GE(r.mape, 0.0);
    EXPECT_LT(r.mape, 100.0) << r.model;
  }
}

}  // namespace
}  // namespace s2c2::predict
