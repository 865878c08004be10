// Chunk-run suite: CodedMatVecJob::compute_chunks_into must be bitwise the
// concatenation of the per-chunk products, and both must carry the bits
// of the partition kernel run over every row — including the padding
// rows that a run no longer computes but fills with +0.0. Bit patterns
// are compared (not EXPECT_EQ on doubles), so a -0.0 where the kernel
// gives +0.0 fails.
//
// Geometry: D = 37 rows over an (8, 6) code with 4 chunks pads each
// partition to 8 rows (2 per chunk). Systematic partition 4 holds data
// rows 32..36, so its live boundary falls inside chunk 2; partition 5 is
// all padding; partitions 6 and 7 are parity.
//
// The engine case fans runs out over the inner pool; the suite rides in
// the TSan preset's filter.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/coding/mds_code.h"
#include "src/core/coded_job.h"
#include "src/core/engine_factory.h"
#include "src/linalg/sparse.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace s2c2 {
namespace {

constexpr std::size_t kN = 8, kK = 6, kChunks = 4, kRows = 37, kCols = 11;
const std::size_t kWidths[] = {1, 3, 16};

std::vector<std::uint64_t> bits(std::span<const double> v) {
  std::vector<std::uint64_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = std::bit_cast<std::uint64_t>(v[i]);
  }
  return out;
}

linalg::CsrMatrix random_sparse(util::Rng& rng) {
  std::vector<linalg::Triplet> trips;
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < kCols; ++c) {
      if (rng.uniform(0.0, 1.0) < 0.3) trips.push_back({r, c, rng.normal()});
    }
  }
  return {kRows, kCols, std::move(trips)};
}

/// A panel with negative entries, so a zero row through the kernel would
/// meet -0.0 products.
std::vector<double> random_panel(std::size_t width, util::Rng& rng) {
  std::vector<double> x(kCols * width);
  for (auto& v : x) v = rng.normal();
  return x;
}

/// Every run of the job against (a) the per-chunk products laid end to
/// end and (b) the encoded partitions' kernel over the same rows.
void check_runs(const core::CodedMatVecJob& job,
                const std::vector<coding::EncodedPartition>& parts,
                util::Rng& rng) {
  const std::size_t rpc = job.rows_per_chunk();
  for (const std::size_t width : kWidths) {
    const std::vector<double> x = random_panel(width, rng);
    for (std::size_t w = 0; w < kN; ++w) {
      for (std::size_t first = 0; first < kChunks; ++first) {
        for (std::size_t count = 1; first + count <= kChunks; ++count) {
          const std::size_t values = count * rpc * width;
          std::vector<double> run(values, -1.0);
          job.compute_chunks_into(w, first, count, x, width, run);

          std::vector<double> chunks(values, -2.0);
          for (std::size_t i = 0; i < count; ++i) {
            job.compute_chunk_into(
                w, first + i, x, width,
                std::span<double>(chunks).subspan(i * rpc * width,
                                                  rpc * width));
          }

          std::vector<double> kernel(values, -3.0);
          const std::size_t r0 = first * rpc, r1 = r0 + count * rpc;
          if (width == 1) {
            parts[w].matvec_rows(r0, r1, x, kernel);
          } else {
            parts[w].matmat_rows(r0, r1, x, width, kernel);
          }

          EXPECT_EQ(bits(run), bits(chunks))
              << "worker " << w << " run [" << first << "+" << count
              << ") b=" << width;
          EXPECT_EQ(bits(run), bits(kernel))
              << "worker " << w << " run [" << first << "+" << count
              << ") b=" << width;
        }
      }
    }
  }
}

TEST(ChunkRuns, DenseRunsMatchChunksAndKernelBitwise) {
  util::Rng rng(41);
  const linalg::Matrix a = linalg::Matrix::random_uniform(kRows, kCols, rng);
  const core::CodedMatVecJob job(a, kN, kK, kChunks);
  ASSERT_EQ(job.partition_rows(), 8u);
  ASSERT_EQ(job.rows_per_chunk(), 2u);
  const coding::MdsCode code(kN, kK);
  check_runs(job, code.encode(a, job.partition_rows()), rng);
}

TEST(ChunkRuns, SparseRunsMatchChunksAndKernelBitwise) {
  util::Rng rng(43);
  const linalg::CsrMatrix a = random_sparse(rng);
  const core::CodedMatVecJob job(a, kN, kK, kChunks);
  const coding::MdsCode code(kN, kK);
  check_runs(job, code.encode(a, job.partition_rows()), rng);
}

TEST(ChunkRuns, RejectsWrappedEmptyAndMisSizedRuns) {
  util::Rng rng(53);
  const linalg::Matrix a = linalg::Matrix::random_uniform(kRows, kCols, rng);
  const core::CodedMatVecJob job(a, kN, kK, kChunks);
  const std::vector<double> x = random_panel(1, rng);
  std::vector<double> out(2 * job.rows_per_chunk());
  EXPECT_THROW(job.compute_chunks_into(0, 3, 2, x, 1, out),
               std::invalid_argument);
  EXPECT_THROW(job.compute_chunks_into(0, 0, 0, x, 1, {}),
               std::invalid_argument);
  EXPECT_THROW(job.compute_chunks_into(0, 0, 1, x, 1, out),
               std::invalid_argument);
}

TEST(ChunkRuns, InnerPoolFanOutOfRunsMatchesSerialBitForBit) {
  // s2c2 over a padded operator whose chunk products cross
  // kMinParallelChunkFlops: 700 rows over k = 10 with 4 chunks gives
  // 72-row partitions, 18 rows per chunk, and systematic partition 9 live
  // to its row 52 (inside chunk 2). Two workers slow mid-run so the §4.3
  // timeout reassigns chunks (recovery extras, each its own task). At
  // b = 16 a round stages 10 x 72 x 16 doubles (90 KiB), more than one
  // 64 KiB arena block, so a worker's slots can straddle a block boundary
  // and must split its run there. inner_jobs = 4 fans the runs out; the
  // products keep the serial bits and match the direct product.
  util::Rng rng(59);
  const linalg::Matrix a = linalg::Matrix::random_uniform(700, 64, rng);
  const auto make = [&a](std::size_t inner_jobs) {
    std::vector<sim::SpeedTrace> traces = test::uniform_traces(12);
    traces[2] = sim::SpeedTrace::step(1e-3, 1.0, 0.2);
    traces[7] = sim::SpeedTrace::step(2e-3, 1.0, 0.3);
    core::EngineParams p;
    p.cluster = test::make_spec(std::move(traces));
    p.dense = &a;
    p.k = 10;
    p.chunks_per_partition = 4;
    p.inner_jobs = inner_jobs;
    return core::make_engine(core::StrategyKind::kS2C2, std::move(p));
  };
  for (const std::size_t width : {std::size_t{1}, std::size_t{16}}) {
    const auto serial = make(1);
    const auto inner = make(4);
    std::size_t timeouts = 0;
    for (std::size_t round = 0; round < 6; ++round) {
      linalg::Matrix x(a.cols(), width);
      for (auto& v : x.mutable_data()) v = rng.normal();
      const core::RoundResult s = serial->run_round_block(x, width);
      const core::RoundResult p = inner->run_round_block(x, width);
      timeouts += s.stats.timeout_fired ? 1 : 0;
      EXPECT_EQ(s.stats.latency(), p.stats.latency()) << "round " << round;
      const std::span<const double> sy =
          width == 1 ? std::span<const double>(*s.y) : s.y_block->data();
      const std::span<const double> py =
          width == 1 ? std::span<const double>(*p.y) : p.y_block->data();
      EXPECT_EQ(bits(sy), bits(py)) << "round " << round << " b=" << width;
      const linalg::Matrix truth = a.matmat(x);
      ASSERT_EQ(sy.size(), truth.size());
      for (std::size_t i = 0; i < sy.size(); ++i) {
        ASSERT_NEAR(sy[i], truth.data()[i], 1e-9)
            << "round " << round << " b=" << width << " value " << i;
      }
    }
    EXPECT_GT(timeouts, 0u) << "the rig must exercise recovery extras";
  }
}

}  // namespace
}  // namespace s2c2
