#include "src/predict/arima.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/linalg/lu.h"
#include "src/linalg/matrix.h"
#include "src/util/require.h"

namespace s2c2::predict {

double ArModel::forecast(std::span<const double> history) const {
  if (history.empty()) return 1.0;
  if (history.size() < phi.size()) return history.back();
  double y = intercept;
  for (std::size_t i = 0; i < phi.size(); ++i) {
    y += phi[i] * history[history.size() - 1 - i];
  }
  return y;
}

ArModel fit_ar(const std::vector<std::vector<double>>& corpus, std::size_t p) {
  S2C2_REQUIRE(p >= 1, "AR order must be >= 1");
  // Normal equations for [y_{t-1} ... y_{t-p} 1] -> y_t, pooled.
  const std::size_t dim = p + 1;
  linalg::Matrix xtx(dim, dim);
  std::vector<double> xty(dim, 0.0);
  std::size_t rows = 0;
  for (const auto& series : corpus) {
    if (series.size() <= p) continue;
    for (std::size_t t = p; t < series.size(); ++t) {
      std::vector<double> x(dim, 1.0);
      for (std::size_t i = 0; i < p; ++i) x[i] = series[t - 1 - i];
      for (std::size_t a = 0; a < dim; ++a) {
        for (std::size_t b = 0; b < dim; ++b) xtx(a, b) += x[a] * x[b];
        xty[a] += x[a] * series[t];
      }
      ++rows;
    }
  }
  S2C2_REQUIRE(rows > dim, "not enough data to fit AR model");
  // Ridge nudge for numerical safety on near-constant series.
  for (std::size_t a = 0; a < dim; ++a) xtx(a, a) += 1e-9;
  const linalg::LuFactorization lu(xtx);
  const auto beta = lu.solve(xty);
  ArModel m;
  m.phi.assign(beta.begin(), beta.begin() + static_cast<std::ptrdiff_t>(p));
  m.intercept = beta[p];
  return m;
}

namespace {

/// Conditional sum of squares of ARMA(1,1) on a differenced corpus.
double css(const std::vector<std::vector<double>>& corpus, std::size_t d,
           double phi, double theta, double* intercept_out) {
  double sse = 0.0;
  std::size_t count = 0;
  // Intercept that centers the process: c = mean(z) * (1 - phi).
  double zsum = 0.0;
  std::size_t zn = 0;
  for (const auto& series : corpus) {
    std::vector<double> z(series.begin(), series.end());
    for (std::size_t diff = 0; diff < d; ++diff) {
      for (std::size_t t = z.size(); t-- > 1;) z[t] -= z[t - 1];
      z.erase(z.begin());
    }
    for (double v : z) zsum += v;
    zn += z.size();
  }
  const double c = zn > 0 ? zsum / static_cast<double>(zn) * (1.0 - phi) : 0.0;
  if (intercept_out != nullptr) *intercept_out = c;

  for (const auto& series : corpus) {
    std::vector<double> z(series.begin(), series.end());
    for (std::size_t diff = 0; diff < d; ++diff) {
      for (std::size_t t = z.size(); t-- > 1;) z[t] -= z[t - 1];
      z.erase(z.begin());
    }
    if (z.size() < 2) continue;
    double e_prev = 0.0;
    for (std::size_t t = 1; t < z.size(); ++t) {
      const double pred = c + phi * z[t - 1] + theta * e_prev;
      const double e = z[t] - pred;
      sse += e * e;
      e_prev = e;
      ++count;
    }
  }
  return count > 0 ? sse / static_cast<double>(count)
                   : std::numeric_limits<double>::infinity();
}

}  // namespace

double ArimaModel::forecast(std::span<const double> history) const {
  if (history.empty()) return 1.0;
  if (history.size() < d + 2) return history.back();
  // Reconstruct the differenced tail and the last innovation estimate.
  std::vector<double> z(history.begin(), history.end());
  for (std::size_t diff = 0; diff < d; ++diff) {
    for (std::size_t t = z.size(); t-- > 1;) z[t] -= z[t - 1];
    z.erase(z.begin());
  }
  double e_prev = 0.0;
  for (std::size_t t = 1; t < z.size(); ++t) {
    const double pred = intercept + phi * z[t - 1] + theta * e_prev;
    e_prev = z[t] - pred;
  }
  const double z_next = intercept + phi * z.back() + theta * e_prev;
  return d == 0 ? z_next : history.back() + z_next;
}

ArimaModel fit_arima11(const std::vector<std::vector<double>>& corpus,
                       std::size_t d) {
  S2C2_REQUIRE(d <= 1, "only d in {0,1} supported");
  ArimaModel best;
  best.d = d;
  double best_sse = std::numeric_limits<double>::infinity();
  // Coarse grid then local refinement.
  for (double phi = -0.95; phi <= 0.96; phi += 0.05) {
    for (double theta = -0.95; theta <= 0.96; theta += 0.05) {
      double c = 0.0;
      const double sse = css(corpus, d, phi, theta, &c);
      if (sse < best_sse) {
        best_sse = sse;
        best.phi = phi;
        best.theta = theta;
        best.intercept = c;
      }
    }
  }
  const double p0 = best.phi;
  const double t0 = best.theta;
  for (double phi = p0 - 0.05; phi <= p0 + 0.05; phi += 0.005) {
    for (double theta = t0 - 0.05; theta <= t0 + 0.05; theta += 0.005) {
      if (std::abs(phi) >= 1.0) continue;
      double c = 0.0;
      const double sse = css(corpus, d, phi, theta, &c);
      if (sse < best_sse) {
        best_sse = sse;
        best.phi = phi;
        best.theta = theta;
        best.intercept = c;
      }
    }
  }
  return best;
}

ArimaPredictor::ArimaPredictor(std::size_t num_workers, ArimaModel model)
    : model_(model), history_(num_workers) {}

void ArimaPredictor::observe(std::size_t worker, double speed) {
  S2C2_REQUIRE(worker < history_.size(), "worker out of range");
  history_[worker].push_back(speed);
}

double ArimaPredictor::predict(std::size_t worker) {
  S2C2_REQUIRE(worker < history_.size(), "worker out of range");
  const double f = model_.forecast(history_[worker]);
  return f > 0.0 ? f : 0.0;
}

std::string ArimaPredictor::name() const {
  return "ARIMA(1," + std::to_string(model_.d) + ",1)";
}

}  // namespace s2c2::predict
