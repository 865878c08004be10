#include "src/apps/logistic_regression.h"

#include <cmath>

namespace s2c2::apps {

linalg::Vector logistic_residual(const workload::Dataset& data,
                                 std::span<const double> margins) {
  const std::size_t m = data.x.rows();
  linalg::Vector r(m);
  for (std::size_t i = 0; i < m; ++i) {
    r[i] = -data.y[i] / (1.0 + std::exp(data.y[i] * margins[i])) /
           static_cast<double>(m);
  }
  return r;
}

double logistic_loss(const workload::Dataset& data, const linalg::Vector& w,
                     double l2_reg) {
  const auto margins = data.x.matvec(w);
  double loss = 0.0;
  for (std::size_t i = 0; i < margins.size(); ++i) {
    // log(1 + exp(-y u)) computed stably.
    const double z = -data.y[i] * margins[i];
    loss += z > 30.0 ? z : std::log1p(std::exp(z));
  }
  loss /= static_cast<double>(margins.size());
  loss += 0.5 * l2_reg * linalg::dot(w, w);
  return loss;
}

linalg::Vector logistic_gradient(const workload::Dataset& data,
                                 const linalg::Vector& w, double l2_reg) {
  const auto margins = data.x.matvec(w);
  const auto resid = logistic_residual(data, margins);
  auto grad = data.x.matvec_transposed(resid);
  linalg::axpy(l2_reg, w, grad);
  return grad;
}

}  // namespace s2c2::apps
