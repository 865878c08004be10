#include "src/apps/pagerank.h"

#include "src/workload/graphs.h"

namespace s2c2::apps {

std::vector<double> out_degrees(const linalg::CsrMatrix& adj) {
  std::vector<double> deg(adj.rows(), 0.0);
  const auto rp = adj.row_ptr();
  const auto vals = adj.values();
  for (std::size_t r = 0; r < adj.rows(); ++r) {
    for (std::size_t p = rp[r]; p < rp[r + 1]; ++p) deg[r] += vals[p];
  }
  return deg;
}

void pagerank_update(std::span<const double> t, std::span<const double> r,
                     std::span<const double> outdeg, double damping,
                     std::span<double> out) {
  const auto nd = static_cast<double>(r.size());
  double dangling = 0.0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (outdeg[i] == 0.0) dangling += r[i];
  }
  const double base = (1.0 - damping) / nd + damping * dangling / nd;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = damping * t[i] + base;
  }
}

linalg::Vector pagerank_direct(const linalg::CsrMatrix& adj, double damping,
                               std::size_t iterations) {
  const std::size_t nodes = adj.rows();
  const linalg::CsrMatrix m = workload::link_matrix(adj);
  const auto outdeg = out_degrees(adj);
  linalg::Vector r(nodes, 1.0 / static_cast<double>(nodes));
  linalg::Vector t(nodes), next(nodes);
  for (std::size_t it = 0; it < iterations; ++it) {
    m.matvec_into(r, t);
    pagerank_update(t, r, outdeg, damping, next);
    r = next;
  }
  return r;
}

}  // namespace s2c2::apps
