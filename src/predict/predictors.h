// Speed prediction interface (paper §3.2, §6.1, §6.2).
//
// The master observes each worker's realized speed every iteration
// (rows computed / response time) and asks a predictor for next-iteration
// speeds before allocating work. Implementations here cover the paper's
// models (LSTM in lstm.h, ARIMA in arima.h) plus the degenerate predictors
// the evaluation needs: last-value (≈ ARIMA(1,0,0) with unit coefficient),
// equal-speed (what basic S2C2 assumes for non-stragglers), and a noise
// wrapper used to dial in a target mis-prediction rate for ablations.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace s2c2::predict {

class SpeedPredictor {
 public:
  virtual ~SpeedPredictor() = default;

  /// Feeds the realized speed of `worker` for the round that just ended.
  virtual void observe(std::size_t worker, double speed) = 0;

  /// One-step-ahead speed forecast for `worker`.
  [[nodiscard]] virtual double predict(std::size_t worker) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Predicts the last observed speed (1.0 before any observation).
class LastValuePredictor final : public SpeedPredictor {
 public:
  explicit LastValuePredictor(std::size_t num_workers);
  void observe(std::size_t worker, double speed) override;
  double predict(std::size_t worker) override;
  std::string name() const override { return "last-value"; }

 private:
  std::vector<double> last_;
};

/// Always predicts 1.0 — models a master with no speed information.
class EqualSpeedPredictor final : public SpeedPredictor {
 public:
  void observe(std::size_t, double) override {}
  double predict(std::size_t) override { return 1.0; }
  std::string name() const override { return "equal-speed"; }
};

/// Averages the first `warmup` observations per worker, then freezes —
/// models *static* heterogeneity-aware load splitting (Reisizadeh et al.,
/// cited as [34] in the paper), the natural ablation against S2C2's
/// per-round adaptation.
class FrozenSpeedPredictor final : public SpeedPredictor {
 public:
  FrozenSpeedPredictor(std::size_t num_workers, std::size_t warmup_rounds);
  void observe(std::size_t worker, double speed) override;
  double predict(std::size_t worker) override;
  std::string name() const override { return "frozen-after-warmup"; }

 private:
  std::size_t warmup_;
  std::vector<std::size_t> seen_;
  std::vector<double> sum_;
};

/// Wraps another predictor and corrupts a fraction of predictions with
/// multiplicative error — used to study S2C2 under controlled
/// mis-prediction rates (tests/fault_injection_test.cpp).
class NoisyPredictor final : public SpeedPredictor {
 public:
  NoisyPredictor(std::unique_ptr<SpeedPredictor> inner, double corrupt_prob,
                 double rel_error, std::uint64_t seed);
  void observe(std::size_t worker, double speed) override;
  double predict(std::size_t worker) override;
  std::string name() const override;

 private:
  std::unique_ptr<SpeedPredictor> inner_;
  double corrupt_prob_;
  double rel_error_;
  util::Rng rng_;
};

/// Wraps another predictor and scales its estimates by an externally
/// supplied per-worker health factor in (0, 1] — the hook
/// `telemetry::HealthMonitor::prediction_scale` plugs into. The predict
/// layer stays below telemetry: the wrapper only sees a callback, so the
/// monitor (owned by the engine) can bid down degrading workers before
/// the trace itself confirms the decline. An empty callback or an
/// out-of-range factor degrades to the inner prediction unchanged.
class HealthInformedPredictor final : public SpeedPredictor {
 public:
  using ScaleFn = std::function<double(std::size_t)>;
  HealthInformedPredictor(std::unique_ptr<SpeedPredictor> inner,
                          ScaleFn scale);
  void observe(std::size_t worker, double speed) override;
  double predict(std::size_t worker) override;
  std::string name() const override;

 private:
  std::unique_ptr<SpeedPredictor> inner_;
  ScaleFn scale_;
};

}  // namespace s2c2::predict
