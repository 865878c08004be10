#include "src/coding/mds_code.h"

#include <algorithm>

#include "src/linalg/kernels.h"
#include "src/util/require.h"

namespace s2c2::coding {

EncodedPartition::EncodedPartition(linalg::Matrix dense)
    : dense_(std::move(dense)) {}

EncodedPartition::EncodedPartition(linalg::CsrMatrix sparse)
    : sparse_(std::move(sparse)) {}

std::size_t EncodedPartition::rows() const noexcept {
  return sparse_ ? sparse_->rows() : dense_->rows();
}

std::size_t EncodedPartition::cols() const noexcept {
  return sparse_ ? sparse_->cols() : dense_->cols();
}

std::size_t EncodedPartition::storage_bytes() const noexcept {
  if (sparse_) {
    // values + column indices + row pointers.
    return sparse_->nnz() * (sizeof(double) + sizeof(std::size_t)) +
           (sparse_->rows() + 1) * sizeof(std::size_t);
  }
  return dense_->size() * sizeof(double);
}

void EncodedPartition::matvec_rows(std::size_t r0, std::size_t r1,
                                   std::span<const double> x,
                                   std::span<double> y) const {
  S2C2_REQUIRE(r0 <= r1 && r1 <= rows(), "matvec_rows range out of bounds");
  S2C2_REQUIRE(y.size() == r1 - r0, "matvec_rows output size mismatch");
  if (sparse_) {
    S2C2_REQUIRE(x.size() == sparse_->cols(), "matvec_rows x size mismatch");
    linalg::kernels::csr_matvec(sparse_->row_ptr().data() + r0, r1 - r0,
                                sparse_->col_idx().data(),
                                sparse_->values().data(), x.data(), y.data());
    return;
  }
  S2C2_REQUIRE(x.size() == dense_->cols(), "matvec_rows x size mismatch");
  const std::size_t cols = dense_->cols();
  linalg::kernels::dense_matvec(dense_->data().data() + r0 * cols, r1 - r0,
                                cols, x.data(), y.data());
}

void EncodedPartition::matmat_rows(std::size_t r0, std::size_t r1,
                                   std::span<const double> x,
                                   std::size_t width,
                                   std::span<double> y) const {
  S2C2_REQUIRE(width > 0, "matmat_rows: width must be >= 1");
  S2C2_REQUIRE(r0 <= r1 && r1 <= rows(), "matmat_rows range out of bounds");
  S2C2_REQUIRE(y.size() == (r1 - r0) * width,
               "matmat_rows output size mismatch");
  if (sparse_) {
    S2C2_REQUIRE(x.size() == sparse_->cols() * width,
                 "matmat_rows x panel size mismatch");
    linalg::kernels::csr_matmat(sparse_->row_ptr().data() + r0, r1 - r0,
                                sparse_->col_idx().data(),
                                sparse_->values().data(), x.data(), width,
                                y.data());
    return;
  }
  S2C2_REQUIRE(x.size() == dense_->cols() * width,
               "matmat_rows x panel size mismatch");
  const std::size_t cols = dense_->cols();
  linalg::kernels::dense_matmat(dense_->data().data() + r0 * cols, r1 - r0,
                                cols, x.data(), width, y.data());
}

linalg::Vector EncodedPartition::matvec(std::span<const double> x) const {
  linalg::Vector y(rows());
  matvec_rows(0, rows(), x, y);
  return y;
}

MdsCode::MdsCode(std::size_t n, std::size_t k, ParityKind kind,
                 std::uint64_t seed)
    : generator_(n, k, kind, seed) {}

std::size_t MdsCode::partition_rows(std::size_t data_rows) const {
  S2C2_REQUIRE(data_rows > 0, "operator must have rows");
  return (data_rows + k() - 1) / k();
}

std::vector<EncodedPartition> MdsCode::encode(const linalg::Matrix& a,
                                              std::size_t pr) const {
  S2C2_REQUIRE(pr >= partition_rows(a.rows()),
               "partition_rows too small for the operator");
  std::vector<EncodedPartition> parts;
  parts.reserve(n());
  for (std::size_t j = 0; j < n(); ++j) {
    linalg::Matrix part(pr, a.cols());
    for (std::size_t i = 0; i < k(); ++i) {
      const double g = generator_.coeff(j, i);
      if (g == 0.0) continue;
      const std::size_t src0 = i * pr;
      const std::size_t src1 = std::min(src0 + pr, a.rows());
      for (std::size_t r = src0; r < src1; ++r) {
        const auto src = a.row(r);
        const auto dst = part.row(r - src0);
        for (std::size_t c = 0; c < a.cols(); ++c) dst[c] += g * src[c];
      }
    }
    parts.emplace_back(std::move(part));
  }
  return parts;
}

std::vector<EncodedPartition> MdsCode::encode(const linalg::CsrMatrix& a,
                                              std::size_t pr) const {
  S2C2_REQUIRE(pr >= partition_rows(a.rows()),
               "partition_rows too small for the operator");
  std::vector<EncodedPartition> parts;
  parts.reserve(n());
  for (std::size_t j = 0; j < n(); ++j) {
    if (generator_.is_systematic_row(j)) {
      const std::size_t src0 = j * pr;
      const std::size_t src1 = std::min(src0 + pr, a.rows());
      linalg::CsrMatrix block =
          src0 < a.rows() ? a.row_block(src0, src1)
                          : linalg::CsrMatrix(0, a.cols(), {});
      if (block.rows() < pr) {
        // Pad with explicit zero rows so every partition has pr rows.
        std::vector<linalg::Triplet> trips;
        trips.reserve(block.nnz());
        const auto rp = block.row_ptr();
        const auto ci = block.col_idx();
        const auto vals = block.values();
        for (std::size_t r = 0; r < block.rows(); ++r) {
          for (std::size_t p = rp[r]; p < rp[r + 1]; ++p) {
            trips.push_back({r, ci[p], vals[p]});
          }
        }
        block = linalg::CsrMatrix(pr, a.cols(), std::move(trips));
      }
      parts.emplace_back(std::move(block));
      continue;
    }
    // Parity partitions densify: sum of sparse row blocks.
    linalg::Matrix part(pr, a.cols());
    const auto row_ptr = a.row_ptr();
    const auto col_idx = a.col_idx();
    const auto values = a.values();
    for (std::size_t i = 0; i < k(); ++i) {
      const double g = generator_.coeff(j, i);
      if (g == 0.0) continue;
      const std::size_t src0 = i * pr;
      const std::size_t src1 = std::min(src0 + pr, a.rows());
      for (std::size_t r = src0; r < src1; ++r) {
        for (std::size_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
          part(r - src0, col_idx[p]) += g * values[p];
        }
      }
    }
    parts.emplace_back(std::move(part));
  }
  return parts;
}

}  // namespace s2c2::coding
