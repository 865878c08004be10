#include "src/coding/mds_code.h"

#include <algorithm>

#include "src/linalg/kernels.h"
#include "src/util/require.h"

namespace s2c2::coding {

namespace {

/// Rows of partition `worker` that can be nonzero: a systematic partition
/// holds operator rows [worker·pr, (worker+1)·pr), so min(pr, D − worker·pr)
/// of them (0 past the end); a parity partition mixes every block and
/// counts all pr.
std::size_t live_rows(const GeneratorMatrix& g, std::size_t worker,
                      std::size_t data_rows, std::size_t pr) {
  if (!g.is_systematic_row(worker)) return pr;
  const std::size_t first_row = worker * pr;
  return data_rows > first_row ? std::min(pr, data_rows - first_row) : 0;
}

}  // namespace

EncodedPartition::EncodedPartition(linalg::Matrix dense, std::size_t rows)
    : dense_(std::move(dense)), rows_(rows) {
  S2C2_REQUIRE(dense_->rows() <= rows_, "partition stores too many rows");
}

EncodedPartition::EncodedPartition(linalg::CsrMatrix sparse, std::size_t rows)
    : sparse_(std::move(sparse)), rows_(rows) {
  S2C2_REQUIRE(sparse_->rows() <= rows_, "partition stores too many rows");
}

std::size_t EncodedPartition::cols() const noexcept {
  return sparse_ ? sparse_->cols() : dense_->cols();
}

std::size_t EncodedPartition::stored_rows() const noexcept {
  return sparse_ ? sparse_->rows() : dense_->rows();
}

std::size_t EncodedPartition::storage_bytes() const noexcept {
  if (sparse_) {
    // values + column indices + row pointers (padding rows hold no values).
    return sparse_->nnz() * (sizeof(double) + sizeof(std::size_t)) +
           (rows_ + 1) * sizeof(std::size_t);
  }
  return rows_ * dense_->cols() * sizeof(double);
}

void EncodedPartition::matvec_rows(std::size_t r0, std::size_t r1,
                                   std::span<const double> x,
                                   std::span<double> y) const {
  matmat_rows(r0, r1, x, 1, y);
}

void EncodedPartition::matmat_rows(std::size_t r0, std::size_t r1,
                                   std::span<const double> x,
                                   std::size_t width,
                                   std::span<double> y) const {
  S2C2_REQUIRE(width > 0, "matmat_rows: width must be >= 1");
  S2C2_REQUIRE(r0 <= r1 && r1 <= rows(), "matmat_rows range out of bounds");
  S2C2_REQUIRE(y.size() == (r1 - r0) * width,
               "matmat_rows output size mismatch");
  S2C2_REQUIRE(x.size() == cols() * width, "matmat_rows x panel size mismatch");
  const std::size_t live = std::clamp(stored_rows(), r0, r1);
  if (live > r0) {
    const std::size_t n = live - r0;
    // Width 1 runs the matvec kernels themselves.
    if (sparse_) {
      linalg::kernels::csr_matmat(sparse_->row_ptr().data() + r0, n,
                                  sparse_->col_idx().data(),
                                  sparse_->values().data(), x.data(), width,
                                  y.data());
    } else {
      const std::size_t cols = dense_->cols();
      linalg::kernels::dense_matmat(dense_->data().data() + r0 * cols, n, cols,
                                    x.data(), width, y.data());
    }
  }
  // Rows past the stored ones: the kernel's value for a zero row.
  std::fill(y.begin() + static_cast<std::ptrdiff_t>((live - r0) * width),
            y.end(), 0.0);
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
    linalg::Matrix part(live_rows(generator_, j, a.rows(), pr), a.cols());
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
    parts.emplace_back(std::move(part), pr);
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
      const std::size_t src0 = std::min(j * pr, a.rows());
      parts.emplace_back(
          a.row_block(src0, src0 + live_rows(generator_, j, a.rows(), pr)),
          pr);
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
    parts.emplace_back(std::move(part), pr);
  }
  return parts;
}

}  // namespace s2c2::coding
