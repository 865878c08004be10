// ARIMA-family forecasting (paper §6.1 baselines).
//
// The paper evaluates ARIMA(1,0,0), ARIMA(2,0,0) and ARIMA(1,1,1) against
// the LSTM. AR(p) models are fit by ordinary least squares on the lagged
// design matrix; ARMA(1,1) (on the once-differenced series for d=1) by
// conditional sum of squares over a coarse-to-fine grid in (phi, theta).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "src/predict/predictors.h"

namespace s2c2::predict {

/// AR(p): y_t = c + Σ_i φ_i · y_{t-i} + e_t.
struct ArModel {
  std::vector<double> phi;
  double intercept = 0.0;

  [[nodiscard]] std::size_t order() const { return phi.size(); }

  /// One-step forecast from the most recent values (history.back() is the
  /// latest). Falls back to the last value when history is shorter than p.
  [[nodiscard]] double forecast(std::span<const double> history) const;
};

/// OLS fit pooled over a corpus of series.
[[nodiscard]] ArModel fit_ar(const std::vector<std::vector<double>>& corpus,
                             std::size_t p);

/// ARIMA(1,d,1) with d in {0,1}: ARMA(1,1) on the d-times differenced
/// series: z_t = c + φ z_{t-1} + θ e_{t-1} + e_t.
struct ArimaModel {
  std::size_t d = 0;
  double phi = 0.0;
  double theta = 0.0;
  double intercept = 0.0;

  [[nodiscard]] double forecast(std::span<const double> history) const;
};

[[nodiscard]] ArimaModel fit_arima11(
    const std::vector<std::vector<double>>& corpus, std::size_t d);

/// SpeedPredictor adapter: shared fitted model, per-worker history window.
class ArimaPredictor final : public SpeedPredictor {
 public:
  ArimaPredictor(std::size_t num_workers, ArimaModel model);
  void observe(std::size_t worker, double speed) override;
  double predict(std::size_t worker) override;
  std::string name() const override;

 private:
  ArimaModel model_;
  std::vector<std::vector<double>> history_;
};

}  // namespace s2c2::predict
