// (n,k)-MDS encoding of a matrix operator for coded matrix-vector jobs.
//
// The master splits the D x m data matrix A into k row blocks A_0..A_{k-1}
// (rows past D read as zeros, never materialized), then hands worker j the
// encoded partition  Ã_j = Σ_i G(j,i) · A_i. A worker computing rows
// [r0,r1) of Ã_j · x produces exactly the values the chunked decoder needs
// to reconstruct those rows of every A_i · x once k workers have covered
// them (coding/chunked_decoder.h).
//
// Sparse operators (graph adjacency / Laplacian) keep their systematic
// partitions in CSR form; parity partitions are sums of row blocks and
// densify, so they are materialized densely. EncodedPartition hides the
// difference behind one matvec interface.
//
// Complexity: encode() is a one-time O(n·D·m/k) cost, excluded from
// per-iteration latencies (paper's setup phase). Decode goes through
// coding/chunked_decoder.h + coding/decode_context.h at amortized O(k²)
// per responder set — cost model in docs/PERFORMANCE.md.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "src/coding/generator_matrix.h"
#include "src/linalg/matrix.h"
#include "src/linalg/sparse.h"

namespace s2c2::coding {

/// One worker's stored partition: dense, or CSR when the source operator is
/// sparse and the partition is systematic.
class EncodedPartition {
 public:
  explicit EncodedPartition(linalg::Matrix dense);
  explicit EncodedPartition(linalg::CsrMatrix sparse);

  [[nodiscard]] std::size_t rows() const noexcept;
  [[nodiscard]] std::size_t cols() const noexcept;
  [[nodiscard]] bool is_sparse() const noexcept { return sparse_.has_value(); }

  /// Bytes a worker must store for this partition (Fig 3 storage study).
  [[nodiscard]] std::size_t storage_bytes() const noexcept;

  /// y[0..r1-r0) = (partition rows [r0,r1)) * x — the worker-side kernel.
  void matvec_rows(std::size_t r0, std::size_t r1, std::span<const double> x,
                   std::span<double> y) const;

  /// Block worker kernel: rows [r0,r1) times a row-major cols() x width
  /// panel; y is (r1-r0) x width row-major. Column j is bitwise identical
  /// to matvec_rows on column j of the panel (same per-row accumulation
  /// order), which the b=1 block round path relies on.
  void matmat_rows(std::size_t r0, std::size_t r1, std::span<const double> x,
                   std::size_t width, std::span<double> y) const;

  /// Convenience full-partition product.
  [[nodiscard]] linalg::Vector matvec(std::span<const double> x) const;

 private:
  std::optional<linalg::Matrix> dense_;
  std::optional<linalg::CsrMatrix> sparse_;
};

class MdsCode {
 public:
  MdsCode(std::size_t n, std::size_t k,
          ParityKind kind = ParityKind::kGaussian,
          std::uint64_t seed = 0x5c2c2ull);

  [[nodiscard]] std::size_t n() const noexcept { return generator_.n(); }
  [[nodiscard]] std::size_t k() const noexcept { return generator_.k(); }
  [[nodiscard]] const GeneratorMatrix& generator() const noexcept {
    return generator_;
  }

  /// Minimum rows of each partition for a D-row operator (= ceil(D/k)).
  [[nodiscard]] std::size_t partition_rows(std::size_t data_rows) const;

  /// Encodes a dense operator into n partitions of `partition_rows` rows
  /// each (>= partition_rows(a.rows())). Row block i covers operator rows
  /// [i·partition_rows, (i+1)·partition_rows); rows past a.rows() are
  /// implicit zeros, so callers padding to a chunk multiple never copy
  /// the operator.
  [[nodiscard]] std::vector<EncodedPartition> encode(
      const linalg::Matrix& a, std::size_t partition_rows) const;

  /// Encodes a sparse operator (same row-block layout); systematic
  /// partitions stay CSR, their padding rows stored empty.
  [[nodiscard]] std::vector<EncodedPartition> encode(
      const linalg::CsrMatrix& a, std::size_t partition_rows) const;

 private:
  GeneratorMatrix generator_;
};

}  // namespace s2c2::coding
