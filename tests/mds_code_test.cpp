// Tests for MDS encoding of dense and sparse operators.
#include <gtest/gtest.h>

#include "src/coding/mds_code.h"
#include "src/util/rng.h"

namespace s2c2::coding {
namespace {

TEST(MdsCode, PartitionRowsCeilDivision) {
  const MdsCode code(4, 3);
  EXPECT_EQ(code.partition_rows(9), 3u);
  EXPECT_EQ(code.partition_rows(10), 4u);
  EXPECT_THROW((void)code.partition_rows(0), std::invalid_argument);
}

TEST(MdsCode, SystematicPartitionsAreRawBlocks) {
  util::Rng rng(7);
  const linalg::Matrix a = linalg::Matrix::random_uniform(6, 4, rng);
  const MdsCode code(5, 3);
  const auto parts = code.encode(a, code.partition_rows(a.rows()));
  ASSERT_EQ(parts.size(), 5u);
  // Partition 1 should equal rows [2,4) of A.
  const linalg::Vector x{1.0, -1.0, 0.5, 2.0};
  const auto y = parts[1].matvec(x);
  const auto direct = a.row_block(2, 4).matvec(x);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], direct[i], 1e-12);
}

TEST(MdsCode, ParityPartitionIsGeneratorCombination) {
  util::Rng rng(9);
  const linalg::Matrix a = linalg::Matrix::random_uniform(4, 3, rng);
  const MdsCode code(4, 2, ParityKind::kVandermonde);
  const auto parts = code.encode(a, code.partition_rows(a.rows()));
  // Worker 3 stores A1 + 2·A2 (paper's example).
  const linalg::Vector x{1.0, 2.0, 3.0};
  const auto y = parts[3].matvec(x);
  const auto a1 = a.row_block(0, 2).matvec(x);
  const auto a2 = a.row_block(2, 4).matvec(x);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], a1[i] + 2.0 * a2[i], 1e-12);
  }
}

TEST(MdsCode, UnevenRowsArePaddedWithZeros) {
  util::Rng rng(11);
  const linalg::Matrix a = linalg::Matrix::random_uniform(5, 2, rng);
  const MdsCode code(3, 2);
  const auto parts = code.encode(a, code.partition_rows(a.rows()));
  // partition_rows = ceil(5/2) = 3; last data block has a zero pad row.
  ASSERT_EQ(parts[0].rows(), 3u);
  const linalg::Vector x{1.0, 1.0};
  const auto y1 = parts[1].matvec(x);
  // Row 2 of partition 1 corresponds to (padded) row 5 of A -> zero.
  EXPECT_DOUBLE_EQ(y1[2], 0.0);
}

TEST(MdsCode, SparseSystematicPartitionsStaySparse) {
  const linalg::CsrMatrix a(
      4, 4, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 3.0}, {3, 0, 4.0}});
  const MdsCode code(4, 2);
  const auto parts = code.encode(a, code.partition_rows(a.rows()));
  EXPECT_TRUE(parts[0].is_sparse());
  EXPECT_TRUE(parts[1].is_sparse());
  EXPECT_FALSE(parts[2].is_sparse());  // parity densifies
  EXPECT_FALSE(parts[3].is_sparse());
}

TEST(MdsCode, SparseStorageSmallerThanDenseForSystematic) {
  std::vector<linalg::Triplet> trips;
  for (std::size_t i = 0; i < 100; ++i) trips.push_back({i, i, 1.0});
  const linalg::CsrMatrix a(100, 100, trips);
  const MdsCode code(4, 2);
  const auto parts = code.encode(a, code.partition_rows(a.rows()));
  EXPECT_LT(parts[0].storage_bytes(), parts[2].storage_bytes());
}

TEST(MdsCode, SparseEncodeMatchesDenseEncode) {
  util::Rng rng(13);
  std::vector<linalg::Triplet> trips;
  for (int i = 0; i < 60; ++i) {
    trips.push_back({static_cast<std::size_t>(rng.uniform_int(0, 9)),
                     static_cast<std::size_t>(rng.uniform_int(0, 7)),
                     rng.normal()});
  }
  const linalg::CsrMatrix sparse(10, 8, trips);
  const linalg::Matrix dense = sparse.to_dense();
  const MdsCode code(5, 2);
  const auto sp = code.encode(sparse, code.partition_rows(10));
  const auto dp = code.encode(dense, code.partition_rows(10));
  linalg::Vector x(8);
  for (auto& v : x) v = rng.normal();
  for (std::size_t w = 0; w < 5; ++w) {
    const auto ys = sp[w].matvec(x);
    const auto yd = dp[w].matvec(x);
    ASSERT_EQ(ys.size(), yd.size());
    for (std::size_t i = 0; i < ys.size(); ++i) {
      EXPECT_NEAR(ys[i], yd[i], 1e-10) << "worker " << w;
    }
  }
}

/// Every stored entry of a partition, read back through the kernel with
/// an identity panel (each output is one entry times 1 plus exact zeros).
std::vector<double> entries(const EncodedPartition& part) {
  const std::size_t cols = part.cols();
  std::vector<double> eye(cols * cols, 0.0);
  for (std::size_t c = 0; c < cols; ++c) eye[c * cols + c] = 1.0;
  std::vector<double> out(part.rows() * cols);
  part.matmat_rows(0, part.rows(), eye, cols, out);
  return out;
}

TEST(MdsCode, EncodeWithPartitionRowsMatchesEncodingAPaddedCopy) {
  // encode(a, pr) reads rows past a.rows() as zeros; it must store what
  // encoding an explicitly zero-padded k·pr-row copy stores, partition by
  // partition, for a pr above ceil(D/k) (a chunk-multiple pad).
  util::Rng rng(19);
  const std::size_t rows = 23, cols = 5, pr = 6;  // ceil(23/5) = 5
  const MdsCode code(7, 5);
  const linalg::Matrix a = linalg::Matrix::random_normal(rows, cols, rng);
  linalg::Matrix padded(5 * pr, cols);
  std::vector<linalg::Triplet> trips;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      padded(r, c) = a(r, c);
      if (rng.uniform(0.0, 1.0) < 0.4) trips.push_back({r, c, a(r, c)});
    }
  }
  const linalg::CsrMatrix sparse(rows, cols, trips);
  const linalg::CsrMatrix sparse_padded(5 * pr, cols, trips);

  const auto check = [&](const std::vector<EncodedPartition>& got,
                         const std::vector<EncodedPartition>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t w = 0; w < got.size(); ++w) {
      EXPECT_EQ(got[w].rows(), pr) << "worker " << w;
      EXPECT_EQ(got[w].is_sparse(), want[w].is_sparse()) << "worker " << w;
      EXPECT_EQ(got[w].storage_bytes(), want[w].storage_bytes())
          << "worker " << w;
      EXPECT_EQ(entries(got[w]), entries(want[w])) << "worker " << w;
    }
  };
  check(code.encode(a, pr), code.encode(padded, pr));
  check(code.encode(sparse, pr), code.encode(sparse_padded, pr));
  EXPECT_THROW((void)code.encode(a, 4), std::invalid_argument);
}

TEST(EncodedPartition, MatvecRowsSubrange) {
  util::Rng rng(17);
  const linalg::Matrix m = linalg::Matrix::random_uniform(6, 3, rng);
  const EncodedPartition part{linalg::Matrix(m)};
  linalg::Vector x{1.0, 2.0, -1.0};
  std::vector<double> out(2);
  part.matvec_rows(2, 4, x, out);
  const auto full = m.matvec(x);
  EXPECT_NEAR(out[0], full[2], 1e-12);
  EXPECT_NEAR(out[1], full[3], 1e-12);
  EXPECT_THROW(part.matvec_rows(5, 7, x, out), std::invalid_argument);
}

}  // namespace
}  // namespace s2c2::coding
