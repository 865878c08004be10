// Linear-SVM (hinge loss) math — the paper's cloud workload (§7.2 runs
// SVM for Figs 8-11, 13). The subgradient of
//     (1/m) Σ max(0, 1 - y_i·w·x_i) + (λ/2)|w|²
// needs the same two coded products per iteration as logistic
// regression; harness::run_job runs them for every strategy.
#pragma once

#include <span>

#include "src/workload/datasets.h"

namespace s2c2::apps {

[[nodiscard]] double hinge_objective(const workload::Dataset& data,
                                     const linalg::Vector& w, double lambda);

[[nodiscard]] linalg::Vector hinge_subgradient(const workload::Dataset& data,
                                               const linalg::Vector& w,
                                               double lambda);

/// Hinge-loss subgradient w.r.t. the margins u = X·w: r_i = -y_i/m inside
/// the margin, else 0.
[[nodiscard]] linalg::Vector hinge_residual(const workload::Dataset& data,
                                            std::span<const double> margins);

}  // namespace s2c2::apps
