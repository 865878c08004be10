// Tests for the from-scratch LSTM: gradient correctness (finite
// differences), learning capacity, and the predictor adapter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/predict/lstm.h"
#include "src/util/rng.h"

namespace s2c2::predict {
namespace {

TEST(Lstm, ShapesAndParamCount) {
  const Lstm lstm(1, 4, 1);
  // Wx 16 + Wh 64 + b 16 + Wy 4 + by 1 = 101.
  EXPECT_EQ(lstm.num_params(), 101u);
  EXPECT_EQ(lstm.input_dim(), 1u);
  EXPECT_EQ(lstm.hidden_dim(), 4u);
}

TEST(Lstm, StepUpdatesState) {
  const Lstm lstm(1, 4, 2);
  Lstm::State st = lstm.initial_state();
  const double x[1] = {0.5};
  (void)lstm.step(std::span<const double>(x, 1), st);
  double h_norm = 0.0;
  for (double h : st.h) h_norm += h * h;
  EXPECT_GT(h_norm, 0.0);
}

TEST(Lstm, StepIsDeterministic) {
  const Lstm lstm(1, 4, 3);
  Lstm::State a = lstm.initial_state();
  Lstm::State b = lstm.initial_state();
  const double x[1] = {0.7};
  const double ya = lstm.step(std::span<const double>(x, 1), a);
  const double yb = lstm.step(std::span<const double>(x, 1), b);
  EXPECT_DOUBLE_EQ(ya, yb);
}

TEST(Lstm, GradientMatchesFiniteDifferences) {
  const Lstm lstm(1, 3, 5);
  const std::vector<double> series{0.9, 0.7, 0.8, 0.4, 0.5, 0.6, 0.9, 0.3};
  EXPECT_LT(lstm.gradient_check(series), 1e-4);
}

TEST(Lstm, GradientCheckOnLongerWindow) {
  const Lstm lstm(1, 4, 6);
  util::Rng rng(6);
  std::vector<double> series;
  for (int t = 0; t < 20; ++t) series.push_back(rng.uniform(0.2, 1.0));
  EXPECT_LT(lstm.gradient_check(series), 1e-4);
}

TEST(Lstm, TrainingReducesLoss) {
  util::Rng rng(7);
  std::vector<std::vector<double>> corpus;
  for (int s = 0; s < 4; ++s) {
    std::vector<double> y;
    for (int t = 0; t < 120; ++t) {
      y.push_back(0.6 + 0.35 * std::sin(0.3 * t) + rng.normal(0.0, 0.01));
    }
    corpus.push_back(std::move(y));
  }
  Lstm lstm(1, 4, 8);
  const double before = lstm.evaluate_mse(corpus);
  Lstm::TrainConfig cfg;
  cfg.epochs = 40;
  lstm.train(corpus, cfg);
  const double after = lstm.evaluate_mse(corpus);
  EXPECT_LT(after, before * 0.5);
}

TEST(Lstm, LearnsDeterministicAlternation) {
  // Perfectly learnable pattern a,b,a,b,... — LSTM must beat last-value
  // by a wide margin (last-value is maximally wrong here).
  std::vector<std::vector<double>> corpus;
  for (int s = 0; s < 3; ++s) {
    std::vector<double> y;
    for (int t = 0; t < 100; ++t) y.push_back(t % 2 == 0 ? 0.9 : 0.3);
    corpus.push_back(std::move(y));
  }
  Lstm lstm(1, 4, 9);
  Lstm::TrainConfig cfg;
  cfg.epochs = 150;
  cfg.learning_rate = 2e-2;
  lstm.train(corpus, cfg);
  const double mse = lstm.evaluate_mse(corpus);
  EXPECT_LT(mse, 0.02);  // last-value MSE here is 0.36
}

TEST(Lstm, SetParamsRoundTrip) {
  Lstm a(1, 3, 10);
  Lstm b(1, 3, 11);
  b.set_params(a.params());
  const std::vector<double> series{0.5, 0.6, 0.7, 0.8};
  Lstm::State sa = a.initial_state();
  Lstm::State sb = b.initial_state();
  const double x[1] = {0.5};
  EXPECT_DOUBLE_EQ(a.step(std::span<const double>(x, 1), sa),
                   b.step(std::span<const double>(x, 1), sb));
  EXPECT_THROW(b.set_params(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(LstmPredictor, TracksPerWorkerState) {
  Lstm lstm(1, 4, 12);
  LstmPredictor p(2, lstm);
  EXPECT_DOUBLE_EQ(p.predict(0), 1.0);  // prior
  p.observe(0, 0.5);
  p.observe(1, 0.9);
  // Different observation histories must produce different predictions.
  EXPECT_NE(p.predict(0), p.predict(1));
  EXPECT_GE(p.predict(0), 0.0);  // clamped non-negative
}

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(LstmPredictor, BatchedMatchesPerWorkerAndStep) {
  // The structure-of-arrays predictor against an independent reference:
  // one Lstm::State per worker stepped through Lstm::step. Batched and
  // per-worker calls interleave (per-worker updates in descending worker
  // order, so a column must not depend on its neighbours) and speeds
  // include 0. The readout bias (which feeds nothing back) sits at minus
  // the median readout of a dry run, so about half the predictions are
  // positive, and their bits are compared, while the rest are negative
  // readouts clamped to 0.
  constexpr int kRounds = 6;
  for (const std::size_t hidden : {1u, 3u, 4u, 5u}) {
    for (const std::size_t n : {1u, 37u, 1000u}) {
      SCOPED_TRACE("H=" + std::to_string(hidden) + " n=" + std::to_string(n));
      util::Rng rng(hidden * 1000 + n);
      std::vector<std::vector<double>> speeds(kRounds, std::vector<double>(n));
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t w = 0; w < n; ++w) {
          speeds[round][w] =
              (w + round) % 5 == 0 ? 0.0 : rng.uniform(0.0, 1.6);
        }
      }
      Lstm model(1, hidden, 100 + hidden);
      std::vector<double> params(model.params().begin(),
                                 model.params().end());
      params.back() = 0.0;  // readout bias
      model.set_params(params);
      std::vector<double> dry;
      std::vector<Lstm::State> dry_state(n, model.initial_state());
      for (const std::vector<double>& x : speeds) {
        for (std::size_t w = 0; w < n; ++w) {
          dry.push_back(
              model.step(std::span<const double>(&x[w], 1), dry_state[w]));
        }
      }
      std::nth_element(dry.begin(), dry.begin() + dry.size() / 2, dry.end());
      params.back() = -dry[dry.size() / 2];
      model.set_params(params);

      LstmPredictor batched(n, model);
      std::vector<Lstm::State> ref(n, model.initial_state());
      std::vector<double> out(n);
      std::size_t positive = 0, negative = 0;
      for (int round = 0; round < kRounds; ++round) {
        const std::vector<double>& x = speeds[round];
        if (round % 2 == 0) {
          batched.observe_all(x);
        } else {
          for (std::size_t w = n; w-- > 0;) batched.observe(w, x[w]);
        }
        if (round % 3 == 0) {
          batched.predict_all(out);
        } else {
          for (std::size_t w = 0; w < n; ++w) out[w] = batched.predict(w);
        }
        for (std::size_t w = 0; w < n; ++w) {
          const double y = model.step(std::span<const double>(&x[w], 1), ref[w]);
          (y > 0.0 ? positive : negative) += 1;
          ASSERT_EQ(bits_of(out[w]), bits_of(y > 0.0 ? y : 0.0))
              << "round " << round << " worker " << w;
        }
      }
      if (n > 1) {
        EXPECT_GT(positive, 2 * n);
        EXPECT_GT(negative, 2 * n);
      }
    }
  }
}

TEST(LstmPredictor, RequiresScalarInputModel) {
  Lstm wide(2, 4, 13);
  EXPECT_THROW(LstmPredictor(2, wide), std::invalid_argument);
}

}  // namespace
}  // namespace s2c2::predict
