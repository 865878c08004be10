// Tests for the chunk-granular MDS decoder — the numerical heart of S2C2.
#include <gtest/gtest.h>

#include <ostream>

#include "src/coding/chunked_decoder.h"
#include "src/coding/mds_code.h"
#include "src/util/rng.h"

namespace s2c2::coding {
namespace {

/// Builds encoded partitions of a random D x m operator and returns the
/// ground-truth product for verification.
struct Fixture {
  Fixture(std::size_t n, std::size_t k, std::size_t rows, std::size_t cols,
          ParityKind kind, std::uint64_t seed)
      : code(n, k, kind), rng(seed) {
    a = linalg::Matrix::random_uniform(rows, cols, rng);
    parts = code.encode(a);
    x.resize(cols);
    for (auto& v : x) v = rng.normal();
    truth = a.matvec(x);
  }
  MdsCode code;
  util::Rng rng;
  linalg::Matrix a;
  std::vector<EncodedPartition> parts;
  linalg::Vector x;
  linalg::Vector truth;

  std::vector<double> chunk_values(std::size_t worker, std::size_t chunk,
                                   std::size_t rpc) const {
    std::vector<double> out(rpc);
    parts[worker].matvec_rows(chunk * rpc, (chunk + 1) * rpc, x, out);
    return out;
  }
};

TEST(ChunkedDecoder, RejectsBadGeometry) {
  const GeneratorMatrix g(4, 2);
  EXPECT_THROW(ChunkedDecoder(g, 10, 3), std::invalid_argument);
  EXPECT_THROW(ChunkedDecoder(g, 10, 0), std::invalid_argument);
  EXPECT_THROW(ChunkedDecoder(g, 10, 5, 0), std::invalid_argument);
}

TEST(ChunkedDecoder, FullSystematicCoverageDecodesExactly) {
  Fixture f(4, 2, 8, 3, ParityKind::kVandermonde, 1);
  const std::size_t chunks = 4, rpc = 1;
  ChunkedDecoder dec(f.code.generator(), 4, chunks, 1);
  for (std::size_t w = 0; w < 2; ++w) {  // systematic workers only
    for (std::size_t c = 0; c < chunks; ++c) {
      dec.add_chunk_result(w, c, f.chunk_values(w, c, rpc));
    }
  }
  ASSERT_TRUE(dec.decodable());
  const auto out = dec.decode();
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_NEAR(out(r, 0), f.truth[r], 1e-9);
  }
}

TEST(ChunkedDecoder, ParityOnlyCoverageDecodes) {
  Fixture f(4, 2, 8, 3, ParityKind::kVandermonde, 2);
  ChunkedDecoder dec(f.code.generator(), 4, 2, 1);
  for (std::size_t w = 2; w < 4; ++w) {  // parity workers only
    for (std::size_t c = 0; c < 2; ++c) {
      dec.add_chunk_result(w, c, f.chunk_values(w, c, 2));
    }
  }
  ASSERT_TRUE(dec.decodable());
  const auto out = dec.decode();
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_NEAR(out(r, 0), f.truth[r], 1e-9);
  }
}

TEST(ChunkedDecoder, MixedResponderSetsPerChunk) {
  // The S2C2 case: different chunks served by different worker subsets.
  Fixture f(4, 2, 12, 5, ParityKind::kVandermonde, 3);
  const std::size_t chunks = 3, rpc = 2;
  ChunkedDecoder dec(f.code.generator(), 6, chunks, 1);
  // chunk 0: workers {0,1}; chunk 1: {0,2}; chunk 2: {1,2} (paper Fig 4c).
  const std::vector<std::vector<std::size_t>> sets{{0, 1}, {0, 2}, {1, 2}};
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t w : sets[c]) {
      dec.add_chunk_result(w, c, f.chunk_values(w, c, rpc));
    }
  }
  ASSERT_TRUE(dec.decodable());
  const auto out = dec.decode();
  for (std::size_t r = 0; r < 12; ++r) {
    EXPECT_NEAR(out(r, 0), f.truth[r], 1e-9);
  }
}

TEST(ChunkedDecoder, DeficientChunksReported) {
  Fixture f(4, 2, 8, 3, ParityKind::kGaussian, 4);
  ChunkedDecoder dec(f.code.generator(), 4, 4, 1);
  dec.add_chunk_result(0, 0, f.chunk_values(0, 0, 1));
  dec.add_chunk_result(1, 0, f.chunk_values(1, 0, 1));
  dec.add_chunk_result(2, 1, f.chunk_values(2, 1, 1));
  EXPECT_FALSE(dec.decodable());
  const auto missing = dec.deficient_chunks();
  EXPECT_EQ(missing.size(), 3u);  // chunks 1 (one result), 2, 3
  EXPECT_THROW(dec.decode(), std::logic_error);
}

TEST(ChunkedDecoder, DuplicateSubmissionsAreIdempotent) {
  Fixture f(4, 2, 4, 3, ParityKind::kGaussian, 5);
  ChunkedDecoder dec(f.code.generator(), 2, 2, 1);
  for (std::size_t c = 0; c < 2; ++c) {
    dec.add_chunk_result(0, c, f.chunk_values(0, c, 1));
    dec.add_chunk_result(0, c, f.chunk_values(0, c, 1));  // duplicate
    EXPECT_EQ(dec.responders(c).size(), 1u);
    dec.add_chunk_result(3, c, f.chunk_values(3, c, 1));
  }
  ASSERT_TRUE(dec.decodable());
  const auto out = dec.decode();
  for (std::size_t r = 0; r < 4; ++r) EXPECT_NEAR(out(r, 0), f.truth[r], 1e-9);
}

TEST(ChunkedDecoder, LuCacheSharedAcrossChunksWithSameResponders) {
  Fixture f(6, 3, 12, 4, ParityKind::kGaussian, 6);
  ChunkedDecoder dec(f.code.generator(), 4, 4, 1);
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t w : {1u, 3u, 5u}) {
      dec.add_chunk_result(w, c, f.chunk_values(w, c, 1));
    }
  }
  (void)dec.decode();
  EXPECT_EQ(dec.lu_cache_size(), 1u);  // one responder set -> one LU
}

TEST(ChunkedDecoder, ResetClearsResults) {
  Fixture f(4, 2, 4, 3, ParityKind::kGaussian, 7);
  ChunkedDecoder dec(f.code.generator(), 2, 2, 1);
  dec.add_chunk_result(0, 0, f.chunk_values(0, 0, 1));
  dec.reset();
  EXPECT_EQ(dec.responders(0).size(), 0u);
  EXPECT_FALSE(dec.decodable());
}

TEST(ChunkedDecoder, WrongSizeResultRejected) {
  const GeneratorMatrix g(4, 2);
  ChunkedDecoder dec(g, 4, 2, 1);
  EXPECT_THROW(dec.add_chunk_result(0, 0, std::vector<double>(3, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(dec.add_chunk_result(9, 0, std::vector<double>(2, 0.0)),
               std::invalid_argument);
}

struct DecodeParam {
  std::size_t n, k, chunks, rpc;
  ParityKind kind;
};

// Names each case from its fields. Without it gtest dumps the struct's
// bytes, padding included, and the discovered test names change from
// build to build.
void PrintTo(const DecodeParam& p, std::ostream* os) {
  *os << "n" << p.n << " k" << p.k << " " << p.chunks << " chunks x "
      << p.rpc << " rows "
      << (p.kind == ParityKind::kGaussian ? "gaussian" : "vandermonde");
}

class RandomCoverageDecode : public ::testing::TestWithParam<DecodeParam> {};

TEST_P(RandomCoverageDecode, ReconstructsProduct) {
  const auto p = GetParam();
  const std::size_t rows = p.k * p.chunks * p.rpc;
  Fixture f(p.n, p.k, rows, 6, p.kind, 8000 + p.n * 7 + p.k);
  ChunkedDecoder dec(f.code.generator(), p.chunks * p.rpc, p.chunks, 1);
  // Random >= k coverage per chunk.
  for (std::size_t c = 0; c < p.chunks; ++c) {
    std::vector<std::size_t> workers(p.n);
    for (std::size_t w = 0; w < p.n; ++w) workers[w] = w;
    f.rng.shuffle(workers);
    const std::size_t take =
        p.k + static_cast<std::size_t>(f.rng.uniform_int(
                  0, static_cast<std::int64_t>(p.n - p.k)));
    for (std::size_t i = 0; i < take; ++i) {
      dec.add_chunk_result(workers[i], c, f.chunk_values(workers[i], c, p.rpc));
    }
  }
  ASSERT_TRUE(dec.decodable());
  const auto out = dec.decode();
  double max_err = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    max_err = std::max(max_err, std::abs(out(r, 0) - f.truth[r]));
  }
  EXPECT_LT(max_err, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RandomCoverageDecode,
    ::testing::Values(DecodeParam{4, 2, 3, 2, ParityKind::kVandermonde},
                      DecodeParam{6, 4, 4, 1, ParityKind::kVandermonde},
                      DecodeParam{12, 10, 6, 2, ParityKind::kGaussian},
                      DecodeParam{12, 6, 12, 1, ParityKind::kGaussian},
                      DecodeParam{10, 7, 5, 3, ParityKind::kGaussian},
                      DecodeParam{50, 40, 4, 1, ParityKind::kGaussian}));

class BlockDecode : public ::testing::TestWithParam<DecodeParam> {};

TEST_P(BlockDecode, BitwiseMatchesPerColumnDecode) {
  // The block-round contract: a width-b decode over a panel X must yield,
  // in column j, exactly the bits a width-1 decode of column j yields —
  // same responder sets, same cached factorizations, per-column solves.
  const auto p = GetParam();
  const std::size_t rows = p.k * p.chunks * p.rpc;
  const std::size_t cols = 6, b = 3;
  Fixture f(p.n, p.k, rows, cols, p.kind, 9100 + p.n * 7 + p.k);
  linalg::Matrix xb(cols, b);
  for (std::size_t r = 0; r < cols; ++r) {
    for (std::size_t j = 0; j < b; ++j) xb(r, j) = f.rng.normal();
  }

  ChunkedDecoder block(f.code.generator(), p.chunks * p.rpc, p.chunks, b);
  std::vector<ChunkedDecoder> per_col;
  per_col.reserve(b);
  for (std::size_t j = 0; j < b; ++j) {
    per_col.emplace_back(f.code.generator(), p.chunks * p.rpc, p.chunks, 1);
  }

  for (std::size_t c = 0; c < p.chunks; ++c) {
    // Random >= k responder set, different per chunk.
    std::vector<std::size_t> workers(p.n);
    for (std::size_t w = 0; w < p.n; ++w) workers[w] = w;
    f.rng.shuffle(workers);
    const std::size_t take =
        p.k + static_cast<std::size_t>(f.rng.uniform_int(
                  0, static_cast<std::int64_t>(p.n - p.k)));
    for (std::size_t i = 0; i < take; ++i) {
      const std::size_t w = workers[i];
      std::vector<double> vals(p.rpc * b);
      f.parts[w].matmat_rows(c * p.rpc, (c + 1) * p.rpc, xb.data(), b, vals);
      block.add_chunk_result(w, c, std::move(vals));
      for (std::size_t j = 0; j < b; ++j) {
        std::vector<double> xj(cols);
        for (std::size_t r = 0; r < cols; ++r) xj[r] = xb(r, j);
        std::vector<double> col(p.rpc);
        f.parts[w].matvec_rows(c * p.rpc, (c + 1) * p.rpc, xj, col);
        per_col[j].add_chunk_result(w, c, std::move(col));
      }
    }
  }

  ASSERT_TRUE(block.decodable());
  const linalg::Matrix out = block.decode();
  ASSERT_EQ(out.cols(), b);
  for (std::size_t j = 0; j < b; ++j) {
    ASSERT_TRUE(per_col[j].decodable());
    const linalg::Matrix ref = per_col[j].decode();
    for (std::size_t r = 0; r < out.rows(); ++r) {
      EXPECT_EQ(out(r, j), ref(r, 0)) << "col " << j << " row " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BlockDecode,
    ::testing::Values(DecodeParam{6, 4, 4, 1, ParityKind::kVandermonde},
                      DecodeParam{4, 2, 3, 2, ParityKind::kVandermonde},
                      DecodeParam{12, 6, 6, 2, ParityKind::kGaussian},
                      DecodeParam{10, 7, 5, 3, ParityKind::kGaussian}));

}  // namespace
}  // namespace s2c2::coding
