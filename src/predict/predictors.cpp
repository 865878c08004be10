#include "src/predict/predictors.h"

#include <algorithm>

#include "src/util/require.h"

namespace s2c2::predict {

void SpeedPredictor::observe_all(std::span<const double> speeds) {
  for (std::size_t w = 0; w < speeds.size(); ++w) observe(w, speeds[w]);
}

void SpeedPredictor::predict_all(std::span<double> out) {
  for (std::size_t w = 0; w < out.size(); ++w) out[w] = predict(w);
}

LastValuePredictor::LastValuePredictor(std::size_t num_workers)
    : last_(num_workers, 1.0) {}

void LastValuePredictor::observe(std::size_t worker, double speed) {
  S2C2_REQUIRE(worker < last_.size(), "worker out of range");
  last_[worker] = speed;
}

double LastValuePredictor::predict(std::size_t worker) {
  S2C2_REQUIRE(worker < last_.size(), "worker out of range");
  return last_[worker];
}

void LastValuePredictor::observe_all(std::span<const double> speeds) {
  S2C2_REQUIRE(speeds.size() == last_.size(), "one speed per worker");
  std::copy(speeds.begin(), speeds.end(), last_.begin());
}

void LastValuePredictor::predict_all(std::span<double> out) {
  S2C2_REQUIRE(out.size() == last_.size(), "one slot per worker");
  std::copy(last_.begin(), last_.end(), out.begin());
}

FrozenSpeedPredictor::FrozenSpeedPredictor(std::size_t num_workers,
                                           std::size_t warmup_rounds)
    : warmup_(warmup_rounds), seen_(num_workers, 0), sum_(num_workers, 0.0) {
  S2C2_REQUIRE(warmup_rounds >= 1, "need at least one warmup round");
}

void FrozenSpeedPredictor::observe(std::size_t worker, double speed) {
  S2C2_REQUIRE(worker < seen_.size(), "worker out of range");
  if (seen_[worker] >= warmup_) return;  // frozen
  sum_[worker] += speed;
  ++seen_[worker];
}

double FrozenSpeedPredictor::predict(std::size_t worker) {
  S2C2_REQUIRE(worker < seen_.size(), "worker out of range");
  if (seen_[worker] == 0) return 1.0;
  return sum_[worker] / static_cast<double>(seen_[worker]);
}

HealthInformedPredictor::HealthInformedPredictor(
    std::unique_ptr<SpeedPredictor> inner, ScaleFn scale)
    : inner_(std::move(inner)), scale_(std::move(scale)) {
  S2C2_REQUIRE(inner_ != nullptr, "inner predictor required");
}

void HealthInformedPredictor::observe(std::size_t worker, double speed) {
  inner_->observe(worker, speed);
}

double HealthInformedPredictor::predict(std::size_t worker) {
  return scaled(worker, inner_->predict(worker));
}

void HealthInformedPredictor::observe_all(std::span<const double> speeds) {
  inner_->observe_all(speeds);
}

void HealthInformedPredictor::predict_all(std::span<double> out) {
  inner_->predict_all(out);
  for (std::size_t w = 0; w < out.size(); ++w) out[w] = scaled(w, out[w]);
}

double HealthInformedPredictor::scaled(std::size_t worker, double p) const {
  if (!scale_) return p;
  double s = scale_(worker);
  if (!(s > 0.0)) s = 1.0;  // empty/invalid health signal: pass through
  if (s > 1.0) s = 1.0;     // health can only bid a worker down
  return p * s;
}

std::string HealthInformedPredictor::name() const {
  return "health(" + inner_->name() + ")";
}

}  // namespace s2c2::predict
