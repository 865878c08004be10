// Single-layer LSTM for speed forecasting (paper §6.1).
//
// Matches the paper's best model: 1-dimensional input (the previous
// iteration's speed), 4-dimensional hidden state with tanh activation, and
// a 1-dimensional linear readout. Trained from scratch here with full
// backpropagation-through-time and Adam; gradients are finite-difference
// checked in the test suite.
//
// Parameters live in one flat vector (gate order i, f, g, o):
//   Wx (4H x I) | Wh (4H x H) | b (4H) | Wy (H) | by (1)
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/predict/predictors.h"

namespace s2c2::predict {

class Lstm {
 public:
  Lstm(std::size_t input_dim, std::size_t hidden_dim, std::uint64_t seed);

  [[nodiscard]] std::size_t input_dim() const noexcept { return in_; }
  [[nodiscard]] std::size_t hidden_dim() const noexcept { return hid_; }
  [[nodiscard]] std::size_t num_params() const noexcept {
    return params_.size();
  }

  /// Recurrent state. `h_next`/`c_next` are step()'s scratch: it writes
  /// the new state there and swaps, so a warm step never touches the heap.
  struct State {
    std::vector<double> h;
    std::vector<double> c;
    std::vector<double> h_next;
    std::vector<double> c_next;
  };

  [[nodiscard]] State initial_state() const;

  /// One recurrence step: consumes x, updates state in place, returns the
  /// scalar readout y = Wy·h + by. Allocation-free once the state's
  /// scratch is sized (initial_state() sizes it).
  double step(std::span<const double> x, State& state) const;

  /// step() over `count` independent sequences held as structure of
  /// arrays, for a scalar-input model (input_dim() == 1): hidden unit j of
  /// sequence s is h[j * stride + s] (c likewise), z is 4·hidden_dim()
  /// rows of `stride` pre-activation scratch, x[s] is the input and y[s]
  /// receives the readout. One gate row at a time runs over all sequences
  /// (the Enzyme LSTM's gate-array layout, one array per row), and every
  /// element takes step()'s operations in step()'s order, so each
  /// sequence's state and readout are bitwise step() on its own State.
  /// Allocation-free.
  void step_columns(const double* x, std::size_t count, std::size_t stride,
                    double* h, double* c, double* z, double* y) const;

  struct TrainConfig {
    std::size_t epochs = 60;
    double learning_rate = 1e-2;
    std::size_t bptt_window = 32;  // truncation length
    double grad_clip = 5.0;
  };

  /// Trains next-step prediction (input x_t, target x_{t+1}) over a corpus
  /// of scalar series. Returns the final mean squared error.
  double train(const std::vector<std::vector<double>>& corpus,
               const TrainConfig& config);

  /// Mean squared one-step-ahead error over a corpus (no training).
  [[nodiscard]] double evaluate_mse(
      const std::vector<std::vector<double>>& corpus) const;

  /// Analytic-vs-finite-difference gradient comparison on one window;
  /// returns the max relative element error (test hook).
  [[nodiscard]] double gradient_check(std::span<const double> series,
                                      double eps = 1e-6) const;

  [[nodiscard]] std::span<const double> params() const noexcept {
    return params_;
  }
  void set_params(std::span<const double> p);

 private:
  struct StepCache;

  /// Forward + BPTT over series[first..last); accumulates gradient and
  /// returns summed squared error and the number of prediction terms.
  std::pair<double, std::size_t> window_gradient(
      std::span<const double> series, std::span<double> grad) const;

  std::size_t in_;
  std::size_t hid_;
  std::vector<double> params_;

  // Flat-layout offsets.
  [[nodiscard]] std::size_t off_wx() const { return 0; }
  [[nodiscard]] std::size_t off_wh() const { return 4 * hid_ * in_; }
  [[nodiscard]] std::size_t off_b() const {
    return off_wh() + 4 * hid_ * hid_;
  }
  [[nodiscard]] std::size_t off_wy() const { return off_b() + 4 * hid_; }
  [[nodiscard]] std::size_t off_by() const { return off_wy() + hid_; }
};

/// SpeedPredictor adapter: one shared trained LSTM, per-worker recurrent
/// state fed with observed speeds (paper §6.2 batches all workers through
/// the same model). The state is structure of arrays, H x n for h and c
/// plus one 4H x n gate scratch, all sized here: observe_all steps every
/// worker in one Lstm::step_columns pass, and observe(w, ·) steps column w
/// alone through the same code, so the two give the same bits.
class LstmPredictor final : public SpeedPredictor {
 public:
  LstmPredictor(std::size_t num_workers, const Lstm& model);
  void observe(std::size_t worker, double speed) override;
  double predict(std::size_t worker) override;
  void observe_all(std::span<const double> speeds) override;
  void predict_all(std::span<double> out) override;
  std::string name() const override { return "LSTM"; }

 private:
  const Lstm& model_;
  std::size_t n_;
  std::vector<double> h_;  // hidden unit j of worker w at h_[j * n_ + w]
  std::vector<double> c_;  // cell state, same layout
  std::vector<double> z_;  // gate pre-activations, 4H rows of n_
  std::vector<double> next_pred_;
};

}  // namespace s2c2::predict
