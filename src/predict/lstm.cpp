#include "src/predict/lstm.h"

#include <algorithm>
#include <cmath>

#include "src/util/require.h"
#include "src/util/rng.h"

namespace s2c2::predict {

namespace {
double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }
}  // namespace

Lstm::Lstm(std::size_t input_dim, std::size_t hidden_dim, std::uint64_t seed)
    : in_(input_dim), hid_(hidden_dim) {
  S2C2_REQUIRE(input_dim >= 1 && hidden_dim >= 1, "positive dims required");
  params_.assign(4 * hid_ * in_ + 4 * hid_ * hid_ + 4 * hid_ + hid_ + 1, 0.0);
  util::Rng rng(seed);
  const double scale = 1.0 / std::sqrt(static_cast<double>(hid_));
  for (double& p : params_) p = rng.uniform(-scale, scale);
  // Forget-gate bias init to 1: standard trick for gradient flow.
  for (std::size_t j = 0; j < hid_; ++j) params_[off_b() + hid_ + j] = 1.0;
}

Lstm::State Lstm::initial_state() const {
  return State{std::vector<double>(hid_, 0.0), std::vector<double>(hid_, 0.0),
               std::vector<double>(hid_), std::vector<double>(hid_)};
}

struct Lstm::StepCache {
  std::vector<double> x, h_prev, c_prev;
  std::vector<double> i, f, g, o, c, tanh_c, h;
  double y = 0.0;
};

double Lstm::step(std::span<const double> x, State& state) const {
  S2C2_REQUIRE(x.size() == in_, "input dim mismatch");
  S2C2_REQUIRE(state.h.size() == hid_ && state.c.size() == hid_,
               "state dim mismatch");
  const double* wx = params_.data() + off_wx();
  const double* wh = params_.data() + off_wh();
  const double* b = params_.data() + off_b();
  const double* wy = params_.data() + off_wy();
  const double by = params_[off_by()];

  state.h_next.resize(hid_);
  state.c_next.resize(hid_);
  double* const h_new = state.h_next.data();
  double* const c_new = state.c_next.data();
  for (std::size_t j = 0; j < hid_; ++j) {
    double zi = b[j], zf = b[hid_ + j], zg = b[2 * hid_ + j],
           zo = b[3 * hid_ + j];
    for (std::size_t q = 0; q < in_; ++q) {
      zi += wx[j * in_ + q] * x[q];
      zf += wx[(hid_ + j) * in_ + q] * x[q];
      zg += wx[(2 * hid_ + j) * in_ + q] * x[q];
      zo += wx[(3 * hid_ + j) * in_ + q] * x[q];
    }
    for (std::size_t q = 0; q < hid_; ++q) {
      zi += wh[j * hid_ + q] * state.h[q];
      zf += wh[(hid_ + j) * hid_ + q] * state.h[q];
      zg += wh[(2 * hid_ + j) * hid_ + q] * state.h[q];
      zo += wh[(3 * hid_ + j) * hid_ + q] * state.h[q];
    }
    const double gi = sigmoid(zi);
    const double gf = sigmoid(zf);
    const double gg = std::tanh(zg);
    const double go = sigmoid(zo);
    c_new[j] = gf * state.c[j] + gi * gg;
    h_new[j] = go * std::tanh(c_new[j]);
  }
  state.h.swap(state.h_next);
  state.c.swap(state.c_next);
  double y = by;
  for (std::size_t j = 0; j < hid_; ++j) y += wy[j] * state.h[j];
  return y;
}

void Lstm::step_columns(const double* x, std::size_t count,
                        std::size_t stride, double* h, double* c, double* z,
                        double* y) const {
  S2C2_REQUIRE(in_ == 1, "step_columns takes a scalar input");
  const double* wx = params_.data() + off_wx();
  const double* wh = params_.data() + off_wh();
  const double* b = params_.data() + off_b();
  const double* wy = params_.data() + off_wy();
  const double by = params_[off_by()];

  // Every gate row's pre-activation from the old h, before any h moves:
  // b + wx·x, then + wh[q]·h[q] for ascending q.
  for (std::size_t r = 0; r < 4 * hid_; ++r) {
    double* zr = z + r * stride;
    for (std::size_t s = 0; s < count; ++s) zr[s] = b[r] + wx[r] * x[s];
    for (std::size_t q = 0; q < hid_; ++q) {
      const double w = wh[r * hid_ + q];
      const double* hq = h + q * stride;
      for (std::size_t s = 0; s < count; ++s) zr[s] += w * hq[s];
    }
  }
  for (std::size_t j = 0; j < hid_; ++j) {
    const double* zi = z + j * stride;
    const double* zf = z + (hid_ + j) * stride;
    const double* zg = z + (2 * hid_ + j) * stride;
    const double* zo = z + (3 * hid_ + j) * stride;
    double* cj = c + j * stride;
    double* hj = h + j * stride;
    for (std::size_t s = 0; s < count; ++s) {
      const double gi = sigmoid(zi[s]);
      const double gf = sigmoid(zf[s]);
      const double gg = std::tanh(zg[s]);
      const double go = sigmoid(zo[s]);
      cj[s] = gf * cj[s] + gi * gg;
      hj[s] = go * std::tanh(cj[s]);
    }
  }
  for (std::size_t s = 0; s < count; ++s) y[s] = by;
  for (std::size_t j = 0; j < hid_; ++j) {
    const double* hj = h + j * stride;
    for (std::size_t s = 0; s < count; ++s) y[s] += wy[j] * hj[s];
  }
}

std::pair<double, std::size_t> Lstm::window_gradient(
    std::span<const double> series, std::span<double> grad) const {
  S2C2_CHECK(grad.size() == params_.size(), "gradient size mismatch");
  if (series.size() < 2) return {0.0, 0};
  const std::size_t steps = series.size() - 1;

  const double* wx = params_.data() + off_wx();
  const double* wh = params_.data() + off_wh();
  const double* b = params_.data() + off_b();
  const double* wy = params_.data() + off_wy();
  const double by = params_[off_by()];

  // ---- forward with cache ----
  std::vector<StepCache> cache(steps);
  std::vector<double> h(hid_, 0.0), c(hid_, 0.0);
  double sse = 0.0;
  for (std::size_t t = 0; t < steps; ++t) {
    StepCache& cc = cache[t];
    cc.x = {series[t]};
    cc.h_prev = h;
    cc.c_prev = c;
    cc.i.resize(hid_);
    cc.f.resize(hid_);
    cc.g.resize(hid_);
    cc.o.resize(hid_);
    cc.c.resize(hid_);
    cc.tanh_c.resize(hid_);
    cc.h.resize(hid_);
    for (std::size_t j = 0; j < hid_; ++j) {
      double zi = b[j], zf = b[hid_ + j], zg = b[2 * hid_ + j],
             zo = b[3 * hid_ + j];
      for (std::size_t q = 0; q < in_; ++q) {
        zi += wx[j * in_ + q] * cc.x[q];
        zf += wx[(hid_ + j) * in_ + q] * cc.x[q];
        zg += wx[(2 * hid_ + j) * in_ + q] * cc.x[q];
        zo += wx[(3 * hid_ + j) * in_ + q] * cc.x[q];
      }
      for (std::size_t q = 0; q < hid_; ++q) {
        zi += wh[j * hid_ + q] * h[q];
        zf += wh[(hid_ + j) * hid_ + q] * h[q];
        zg += wh[(2 * hid_ + j) * hid_ + q] * h[q];
        zo += wh[(3 * hid_ + j) * hid_ + q] * h[q];
      }
      cc.i[j] = sigmoid(zi);
      cc.f[j] = sigmoid(zf);
      cc.g[j] = std::tanh(zg);
      cc.o[j] = sigmoid(zo);
      cc.c[j] = cc.f[j] * cc.c_prev[j] + cc.i[j] * cc.g[j];
      cc.tanh_c[j] = std::tanh(cc.c[j]);
      cc.h[j] = cc.o[j] * cc.tanh_c[j];
    }
    h = cc.h;
    c = cc.c;
    double y = by;
    for (std::size_t j = 0; j < hid_; ++j) y += wy[j] * cc.h[j];
    cc.y = y;
    const double err = y - series[t + 1];
    sse += err * err;
  }

  // ---- backward ----
  double* g_wx = grad.data() + off_wx();
  double* g_wh = grad.data() + off_wh();
  double* g_b = grad.data() + off_b();
  double* g_wy = grad.data() + off_wy();
  double& g_by = grad[off_by()];

  std::vector<double> dh(hid_, 0.0), dc(hid_, 0.0);
  for (std::size_t t = steps; t-- > 0;) {
    const StepCache& cc = cache[t];
    const double dy = 2.0 * (cc.y - series[t + 1]);
    g_by += dy;
    for (std::size_t j = 0; j < hid_; ++j) {
      g_wy[j] += dy * cc.h[j];
      dh[j] += dy * wy[j];
    }
    std::vector<double> dh_prev(hid_, 0.0), dc_prev(hid_, 0.0);
    for (std::size_t j = 0; j < hid_; ++j) {
      const double do_ = dh[j] * cc.tanh_c[j];
      double dcj = dc[j] + dh[j] * cc.o[j] * (1.0 - cc.tanh_c[j] * cc.tanh_c[j]);
      const double di = dcj * cc.g[j];
      const double dg = dcj * cc.i[j];
      const double df = dcj * cc.c_prev[j];
      dc_prev[j] = dcj * cc.f[j];
      const double dzi = di * cc.i[j] * (1.0 - cc.i[j]);
      const double dzf = df * cc.f[j] * (1.0 - cc.f[j]);
      const double dzg = dg * (1.0 - cc.g[j] * cc.g[j]);
      const double dzo = do_ * cc.o[j] * (1.0 - cc.o[j]);
      const double dz[4] = {dzi, dzf, dzg, dzo};
      for (std::size_t gate = 0; gate < 4; ++gate) {
        const std::size_t row = gate * hid_ + j;
        g_b[row] += dz[gate];
        for (std::size_t q = 0; q < in_; ++q) {
          g_wx[row * in_ + q] += dz[gate] * cc.x[q];
        }
        for (std::size_t q = 0; q < hid_; ++q) {
          g_wh[row * hid_ + q] += dz[gate] * cc.h_prev[q];
          dh_prev[q] += dz[gate] * wh[row * hid_ + q];
        }
      }
    }
    dh = std::move(dh_prev);
    dc = std::move(dc_prev);
  }
  return {sse, steps};
}

double Lstm::train(const std::vector<std::vector<double>>& corpus,
                   const TrainConfig& config) {
  S2C2_REQUIRE(!corpus.empty(), "empty training corpus");
  std::vector<double> grad(params_.size(), 0.0);
  std::vector<double> m(params_.size(), 0.0), v(params_.size(), 0.0);
  const double b1 = 0.9, b2 = 0.999, eps = 1e-8;
  std::size_t adam_t = 0;
  double last_mse = 0.0;

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    double sse = 0.0;
    std::size_t terms = 0;
    for (const auto& series : corpus) {
      if (series.size() < 2) continue;
      for (std::size_t begin = 0; begin + 1 < series.size();
           begin += config.bptt_window) {
        const std::size_t end =
            std::min(series.size(), begin + config.bptt_window + 1);
        std::fill(grad.begin(), grad.end(), 0.0);
        const auto [wsse, wterms] = window_gradient(
            std::span<const double>(series).subspan(begin, end - begin), grad);
        if (wterms == 0) continue;
        sse += wsse;
        terms += wterms;
        // Mean-per-term gradient with clipping.
        double norm = 0.0;
        for (double& gv : grad) {
          gv /= static_cast<double>(wterms);
          norm += gv * gv;
        }
        norm = std::sqrt(norm);
        if (norm > config.grad_clip) {
          const double s = config.grad_clip / norm;
          for (double& gv : grad) gv *= s;
        }
        ++adam_t;
        const double corr1 = 1.0 - std::pow(b1, static_cast<double>(adam_t));
        const double corr2 = 1.0 - std::pow(b2, static_cast<double>(adam_t));
        for (std::size_t p = 0; p < params_.size(); ++p) {
          m[p] = b1 * m[p] + (1.0 - b1) * grad[p];
          v[p] = b2 * v[p] + (1.0 - b2) * grad[p] * grad[p];
          params_[p] -= config.learning_rate * (m[p] / corr1) /
                        (std::sqrt(v[p] / corr2) + eps);
        }
      }
    }
    last_mse = terms > 0 ? sse / static_cast<double>(terms) : 0.0;
  }
  return last_mse;
}

double Lstm::evaluate_mse(
    const std::vector<std::vector<double>>& corpus) const {
  double sse = 0.0;
  std::size_t terms = 0;
  for (const auto& series : corpus) {
    if (series.size() < 2) continue;
    State st = initial_state();
    for (std::size_t t = 0; t + 1 < series.size(); ++t) {
      const double x[1] = {series[t]};
      const double y = step(std::span<const double>(x, 1), st);
      const double err = y - series[t + 1];
      sse += err * err;
      ++terms;
    }
  }
  return terms > 0 ? sse / static_cast<double>(terms) : 0.0;
}

double Lstm::gradient_check(std::span<const double> series, double eps) const {
  S2C2_REQUIRE(series.size() >= 2, "need at least two samples");
  std::vector<double> analytic(params_.size(), 0.0);
  Lstm copy = *this;
  copy.window_gradient(series, analytic);

  double max_rel = 0.0;
  for (std::size_t p = 0; p < params_.size(); ++p) {
    Lstm plus = *this;
    plus.params_[p] += eps;
    Lstm minus = *this;
    minus.params_[p] -= eps;
    std::vector<double> dummy_p(params_.size(), 0.0),
        dummy_m(params_.size(), 0.0);
    const double lp = plus.window_gradient(series, dummy_p).first;
    const double lm = minus.window_gradient(series, dummy_m).first;
    const double numeric = (lp - lm) / (2.0 * eps);
    const double denom =
        std::max({std::abs(numeric), std::abs(analytic[p]), 1e-8});
    max_rel = std::max(max_rel, std::abs(numeric - analytic[p]) / denom);
  }
  return max_rel;
}

void Lstm::set_params(std::span<const double> p) {
  S2C2_REQUIRE(p.size() == params_.size(), "parameter size mismatch");
  std::copy(p.begin(), p.end(), params_.begin());
}

LstmPredictor::LstmPredictor(std::size_t num_workers, const Lstm& model)
    : model_(model),
      n_(num_workers),
      h_(model.hidden_dim() * num_workers, 0.0),
      c_(model.hidden_dim() * num_workers, 0.0),
      z_(4 * model.hidden_dim() * num_workers),
      next_pred_(num_workers, 1.0) {
  S2C2_REQUIRE(model.input_dim() == 1, "speed predictor expects 1-dim input");
}

void LstmPredictor::observe(std::size_t worker, double speed) {
  S2C2_REQUIRE(worker < n_, "worker out of range");
  model_.step_columns(&speed, 1, n_, h_.data() + worker, c_.data() + worker,
                      z_.data() + worker, next_pred_.data() + worker);
}

double LstmPredictor::predict(std::size_t worker) {
  S2C2_REQUIRE(worker < n_, "worker out of range");
  return next_pred_[worker] > 0.0 ? next_pred_[worker] : 0.0;
}

void LstmPredictor::observe_all(std::span<const double> speeds) {
  S2C2_REQUIRE(speeds.size() == n_, "one speed per worker");
  model_.step_columns(speeds.data(), n_, n_, h_.data(), c_.data(), z_.data(),
                      next_pred_.data());
}

void LstmPredictor::predict_all(std::span<double> out) {
  S2C2_REQUIRE(out.size() == n_, "one slot per worker");
  for (std::size_t w = 0; w < n_; ++w) {
    out[w] = next_pred_[w] > 0.0 ? next_pred_[w] : 0.0;
  }
}

}  // namespace s2c2::predict
