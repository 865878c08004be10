// Speed prediction interface (paper §3.2, §6.1, §6.2).
//
// The master observes each worker's realized speed every iteration
// (rows computed / response time) and asks a predictor for next-iteration
// speeds before allocating work. Implementations here cover the paper's
// models (LSTM in lstm.h, ARIMA in arima.h) plus the degenerate predictors
// the evaluation needs: last-value (≈ ARIMA(1,0,0) with unit coefficient),
// equal-speed (what basic S2C2 assumes for non-stragglers), frozen
// (static heterogeneity-aware splitting), and a health-informed wrapper.
//
// The round executor talks to a predictor through the batched pair
// observe_all / predict_all, once per round over every worker (paper §6.2
// runs all workers through one model). Their defaults loop over the
// per-worker calls in ascending worker order, so a predictor that
// overrides only the per-worker pair (a seeded RNG draws in worker order)
// sees the same sequence of calls either way; the LSTM overrides them
// with one structure-of-arrays pass over all workers.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace s2c2::predict {

class SpeedPredictor {
 public:
  virtual ~SpeedPredictor() = default;

  /// Feeds the realized speed of `worker` for the round that just ended.
  virtual void observe(std::size_t worker, double speed) = 0;

  /// One-step-ahead speed forecast for `worker`.
  [[nodiscard]] virtual double predict(std::size_t worker) = 0;

  /// observe(w, speeds[w]) for every worker w, in ascending order.
  virtual void observe_all(std::span<const double> speeds);

  /// out[w] = predict(w) for every worker w, in ascending order.
  virtual void predict_all(std::span<double> out);

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Predicts the last observed speed (1.0 before any observation).
class LastValuePredictor final : public SpeedPredictor {
 public:
  explicit LastValuePredictor(std::size_t num_workers);
  void observe(std::size_t worker, double speed) override;
  double predict(std::size_t worker) override;
  void observe_all(std::span<const double> speeds) override;
  void predict_all(std::span<double> out) override;
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
  /// Forwards to the inner predictor's batched calls; predict_all scales
  /// each worker's estimate exactly as predict does.
  void observe_all(std::span<const double> speeds) override;
  void predict_all(std::span<double> out) override;
  std::string name() const override;

 private:
  /// The inner estimate `p` for `worker`, bid down by its health factor.
  [[nodiscard]] double scaled(std::size_t worker, double p) const;

  std::unique_ptr<SpeedPredictor> inner_;
  ScaleFn scale_;
};

}  // namespace s2c2::predict
