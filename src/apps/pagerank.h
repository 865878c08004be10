// PageRank math (paper §6.3: "graph ranking algorithms ... employ
// repeated matrix-vector multiplication"). Each power-iteration step
// computes t = M·r over the link matrix M (column-stochastic on
// non-dangling columns) and applies damping plus the dangling-mass
// correction at the master; harness::run_job runs the coded M·r for every
// strategy.
#pragma once

#include <span>
#include <vector>

#include "src/linalg/sparse.h"

namespace s2c2::apps {

/// Uncoded power iteration. `adj` is the directed adjacency (row =
/// out-links of that node).
[[nodiscard]] linalg::Vector pagerank_direct(const linalg::CsrMatrix& adj,
                                             double damping,
                                             std::size_t iterations);

/// Per-node out-degrees of the adjacency; zero marks a dangling node.
[[nodiscard]] std::vector<double> out_degrees(const linalg::CsrMatrix& adj);

/// One damping + teleport + dangling-mass update from t = M·r (M the link
/// matrix, r the previous ranks).
void pagerank_update(std::span<const double> t, std::span<const double> r,
                     std::span<const double> outdeg, double damping,
                     std::span<double> out);

}  // namespace s2c2::apps
