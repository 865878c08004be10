// Tests for polynomial codes (bilinear Hessian computation, paper §5).
#include <gtest/gtest.h>

#include <ostream>

#include "src/coding/poly_code.h"
#include "src/util/rng.h"

namespace s2c2::coding {
namespace {

TEST(PolyCode, RejectsTooFewWorkers) {
  EXPECT_THROW(PolyCode(3, 2), std::invalid_argument);  // needs n >= 4
  EXPECT_NO_THROW(PolyCode(4, 2));
}

TEST(PolyCode, EvalPointsDistinct) {
  const PolyCode code(12, 3);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = i + 1; j < 12; ++j) {
      EXPECT_NE(code.eval_point(i), code.eval_point(j));
    }
  }
}

TEST(PolyCode, HessianDirectMatchesManual) {
  const linalg::Matrix a(2, 2, {1, 2, 3, 4});
  const linalg::Vector x{2.0, 1.0};
  // AᵀDA with D = diag(2,1):
  // Aᵀ D A = [[1,3],[2,4]] [[2,0],[0,1]] [[1,2],[3,4]]
  const auto h = PolyCode::hessian_direct(a, x);
  EXPECT_DOUBLE_EQ(h(0, 0), 2.0 * 1 * 1 + 1.0 * 3 * 3);
  EXPECT_DOUBLE_EQ(h(0, 1), 2.0 * 1 * 2 + 1.0 * 3 * 4);
  EXPECT_DOUBLE_EQ(h(1, 0), h(0, 1));
}

TEST(PolyCode, WorkerComputeRowsMatchesFullProduct) {
  util::Rng rng(31);
  const linalg::Matrix a = linalg::Matrix::random_uniform(8, 6, rng);
  const PolyCode code(5, 2);
  const auto ops = code.encode(a);
  linalg::Vector x(8);
  for (auto& v : x) v = rng.uniform(0.1, 1.0);
  // Full P_i vs row-range computation.
  const auto full = PolyCode::compute_rows(ops[2], x, 0, 3);
  const auto top = PolyCode::compute_rows(ops[2], x, 0, 1);
  const auto rest = PolyCode::compute_rows(ops[2], x, 1, 3);
  for (std::size_t c = 0; c < full.cols(); ++c) {
    EXPECT_NEAR(full(0, c), top(0, c), 1e-12);
    EXPECT_NEAR(full(1, c), rest(0, c), 1e-12);
    EXPECT_NEAR(full(2, c), rest(1, c), 1e-12);
  }
}

struct PolyParam {
  std::size_t n, a, chunks;
  EvalPoints points;
};

// Names each case from its fields. Without it gtest dumps the struct's
// bytes, padding included, and the discovered test names change from
// build to build.
void PrintTo(const PolyParam& p, std::ostream* os) {
  *os << "n" << p.n << " a" << p.a << " " << p.chunks << " chunks "
      << (p.points == EvalPoints::kChebyshev ? "chebyshev" : "integers");
}

class PolyDecode : public ::testing::TestWithParam<PolyParam> {};

TEST_P(PolyDecode, ReconstructsHessian) {
  const auto p = GetParam();
  const std::size_t d = p.a * p.chunks * 2;  // d/a = 2*chunks rows
  const std::size_t rows = 10;
  util::Rng rng(4000 + p.n + p.a);
  const linalg::Matrix a_mat = linalg::Matrix::random_uniform(rows, d, rng);
  linalg::Vector x(rows);
  for (auto& v : x) v = rng.uniform(0.1, 2.0);

  const PolyCode code(p.n, p.a, p.points);
  const auto ops = code.encode(a_mat);
  const std::size_t out_rows = d / p.a;
  const std::size_t rpc = out_rows / p.chunks;

  PolyCode::Decoder dec(code, out_rows, p.chunks, d / p.a);
  // Per chunk: random subset of >= a² responders.
  for (std::size_t c = 0; c < p.chunks; ++c) {
    std::vector<std::size_t> workers(p.n);
    for (std::size_t w = 0; w < p.n; ++w) workers[w] = w;
    rng.shuffle(workers);
    const std::size_t take = code.required_responses();
    for (std::size_t i = 0; i < take; ++i) {
      dec.add_chunk_result(workers[i], c,
                           PolyCode::compute_rows(ops[workers[i]], x, c * rpc,
                                                  (c + 1) * rpc));
    }
  }
  ASSERT_TRUE(dec.decodable());
  const auto h = dec.decode();
  const auto truth = PolyCode::hessian_direct(a_mat, x);
  ASSERT_EQ(h.rows(), truth.rows());
  ASSERT_EQ(h.cols(), truth.cols());
  const double scale = truth.frobenius_norm() + 1.0;
  // Integer evaluation points condition far worse than Chebyshev (why the
  // library defaults to Chebyshev); allow them a looser bound.
  const double tol = p.points == EvalPoints::kChebyshev ? 1e-6 : 1e-4;
  EXPECT_LT(h.max_abs_diff(truth) / scale, tol);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PolyDecode,
    ::testing::Values(PolyParam{5, 2, 1, EvalPoints::kChebyshev},
                      PolyParam{5, 2, 2, EvalPoints::kChebyshev},
                      PolyParam{12, 3, 2, EvalPoints::kChebyshev},
                      PolyParam{12, 3, 4, EvalPoints::kChebyshev},
                      PolyParam{5, 2, 2, EvalPoints::kIntegers},
                      PolyParam{12, 3, 2, EvalPoints::kIntegers}));

TEST(PolyDecoder, DeficientChunksReported) {
  const PolyCode code(5, 2);
  PolyCode::Decoder dec(code, 4, 2, 4);
  EXPECT_FALSE(dec.decodable());
  EXPECT_EQ(dec.deficient_chunks().size(), 2u);
}

TEST(PolyDecoder, DuplicateIdempotent) {
  util::Rng rng(41);
  const linalg::Matrix a_mat = linalg::Matrix::random_uniform(6, 4, rng);
  linalg::Vector x(6, 1.0);
  const PolyCode code(5, 2);
  const auto ops = code.encode(a_mat);
  PolyCode::Decoder dec(code, 2, 1, 2);
  dec.add_chunk_result(0, 0, PolyCode::compute_rows(ops[0], x, 0, 2));
  dec.add_chunk_result(0, 0, PolyCode::compute_rows(ops[0], x, 0, 2));
  EXPECT_EQ(dec.responders(0).size(), 1u);
}

}  // namespace
}  // namespace s2c2::coding
