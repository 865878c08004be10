// Logistic-regression math (paper §6.3): loss, gradient and the residual
// that links the two coded products of one gradient step,
//     u = X·w            (forward margins)
//     g = Xᵀ·(σ(u)−y̅)/m  (gradient).
// harness::run_job runs the coded iteration for every strategy.
#pragma once

#include <span>

#include "src/workload/datasets.h"

namespace s2c2::apps {

/// Logistic objective (mean log-loss + L2).
[[nodiscard]] double logistic_loss(const workload::Dataset& data,
                                   const linalg::Vector& w, double l2_reg);

/// Uncoded gradient (the job driver's lockstep reference).
[[nodiscard]] linalg::Vector logistic_gradient(const workload::Dataset& data,
                                               const linalg::Vector& w,
                                               double l2_reg);

/// Derivative of the mean logistic loss w.r.t. the margins u = X·w:
/// r_i = -y_i·σ(-y_i·u_i)/m. The backward coded product computes Xᵀ·r.
[[nodiscard]] linalg::Vector logistic_residual(const workload::Dataset& data,
                                               std::span<const double> margins);

}  // namespace s2c2::apps
