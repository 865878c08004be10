#include "src/apps/svm.h"

#include <algorithm>

namespace s2c2::apps {

linalg::Vector hinge_residual(const workload::Dataset& data,
                              std::span<const double> margins) {
  const std::size_t m = data.x.rows();
  linalg::Vector r(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    if (data.y[i] * margins[i] < 1.0) {
      r[i] = -data.y[i] / static_cast<double>(m);
    }
  }
  return r;
}

double hinge_objective(const workload::Dataset& data, const linalg::Vector& w,
                       double lambda) {
  const auto margins = data.x.matvec(w);
  double obj = 0.0;
  for (std::size_t i = 0; i < margins.size(); ++i) {
    obj += std::max(0.0, 1.0 - data.y[i] * margins[i]);
  }
  obj /= static_cast<double>(margins.size());
  obj += 0.5 * lambda * linalg::dot(w, w);
  return obj;
}

linalg::Vector hinge_subgradient(const workload::Dataset& data,
                                 const linalg::Vector& w, double lambda) {
  const auto margins = data.x.matvec(w);
  auto grad = data.x.matvec_transposed(hinge_residual(data, margins));
  linalg::axpy(lambda, w, grad);
  return grad;
}

}  // namespace s2c2::apps
