// google-benchmark microbenchmarks for the numeric kernels and the
// scheduler hot paths: dense/sparse matvec, a dense panel product vs one
// matvec per panel column, MDS encode, per-chunk vs chunk-run worker
// products, chunked decode, LU solve, allocation, and the LSTM step and
// per-round update used each iteration.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/coding/chunked_decoder.h"
#include "src/coding/mds_code.h"
#include "src/core/coded_job.h"
#include "src/linalg/kernels.h"
#include "src/linalg/lu.h"
#include "src/linalg/sparse.h"
#include "src/predict/lstm.h"
#include "src/sched/allocation.h"
#include "src/util/rng.h"

namespace {

using namespace s2c2;

constexpr linalg::kernels::MatmatTile kTiles[] = {
    linalg::kernels::MatmatTile::kPortable, linalg::kernels::MatmatTile::kAvx2,
    linalg::kernels::MatmatTile::kAvx512};

// A tile's short name, the first word of matmat_tile_name: "avx512".
std::string tile_short_name(linalg::kernels::MatmatTile tile) {
  const std::string name = linalg::kernels::matmat_tile_name(tile);
  return name.substr(0, name.find(' '));
}

void BM_DenseMatvec(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  const auto m = linalg::Matrix::random_uniform(n, n, rng);
  linalg::Vector x(n, 1.0), y(n);
  for (auto _ : state) {
    m.matvec_into(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_DenseMatvec)->Arg(128)->Arg(512)->Arg(1024);

// One dense panel product on a named tile against `width` matvecs, one per
// panel column, on the serve-b16 shapes: 1600 x 512 is the serve
// verification of a full block, 17 x 512 one partition's chunk run.
// Widths 8, 12 and 16 are one full 8-column tile, a ragged strip and one
// full 16-column strip. Every form produces the same bits.
// `tile` null runs the matvecs.
void dense_matmat_case(benchmark::State& state,
                       const linalg::kernels::MatmatTile* tile,
                       std::size_t rows, std::size_t width) {
  const std::size_t cols = 512;
  util::Rng rng(9);
  const auto a = linalg::Matrix::random_uniform(rows, cols, rng);
  const auto x = linalg::Matrix::random_uniform(cols, width, rng);
  std::vector<linalg::Vector> xcols(width, linalg::Vector(cols));
  for (std::size_t j = 0; j < width; ++j) {
    for (std::size_t c = 0; c < cols; ++c) xcols[j][c] = x(c, j);
  }
  linalg::Vector y(rows * width);
  for (auto _ : state) {
    if (tile == nullptr) {
      for (std::size_t j = 0; j < width; ++j) {
        a.matvec_into(xcols[j],
                      std::span<double>(y).subspan(j * rows, rows));
      }
    } else {
      linalg::kernels::dense_matmat_on(*tile, a.data().data(), rows, cols,
                                       x.data().data(), width, y.data());
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols * width));
}

// BM_DenseMatmat/<form>/rows:R/width:W for every tile this CPU can run, by
// name, and for the per-column matvecs; the label names the tile the
// dispatch picked. BM_MatmatWidthSweep/<tile>/width:W runs each SIMD tile
// the CPU can run at every width 1-17 on 1600 x 512 (CI's filter takes the
// avx2 sweep, for the AVX2 tile's ragged column tail).
const bool kDenseMatmatRegistered = [] {
  const std::string dispatched = std::string("dispatched: ") +
      linalg::kernels::matmat_tile_name(
          linalg::kernels::dispatched_matmat_tile());
  const auto register_form = [&](const std::string& form,
                                 const linalg::kernels::MatmatTile* tile) {
    for (const std::size_t rows : {1600, 17}) {
      for (const std::size_t width : {8, 12, 16}) {
        benchmark::RegisterBenchmark(
            ("BM_DenseMatmat/" + form + "/rows:" + std::to_string(rows) +
             "/width:" + std::to_string(width))
                .c_str(),
            [=](benchmark::State& state) {
              dense_matmat_case(state, tile, rows, width);
              state.SetLabel(dispatched);
            });
      }
    }
  };
  for (const linalg::kernels::MatmatTile& tile : kTiles) {
    if (linalg::kernels::cpu_can_run(tile)) {
      register_form(tile_short_name(tile), &tile);
    }
  }
  register_form("matvecs", nullptr);
  for (const linalg::kernels::MatmatTile& tile : kTiles) {
    if (tile == linalg::kernels::MatmatTile::kPortable ||
        !linalg::kernels::cpu_can_run(tile)) {
      continue;
    }
    for (std::size_t width = 1; width <= 17; ++width) {
      benchmark::RegisterBenchmark(
          ("BM_MatmatWidthSweep/" + tile_short_name(tile) +
           "/width:" + std::to_string(width))
              .c_str(),
          [&tile, width](benchmark::State& state) {
            dense_matmat_case(state, &tile, 1600, width);
          });
    }
  }
  return true;
}();

void BM_SparseMatvec(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  std::vector<linalg::Triplet> trips;
  for (std::size_t i = 0; i < n * 8; ++i) {
    trips.push_back(
        {static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1)),
         static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1)),
         rng.normal()});
  }
  const linalg::CsrMatrix m(n, n, trips);
  linalg::Vector x(n, 1.0), y(n);
  for (auto _ : state) {
    m.matvec_into(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.nnz()));
}
BENCHMARK(BM_SparseMatvec)->Arg(1024)->Arg(8192);

void BM_MdsEncode(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  const auto a = linalg::Matrix::random_uniform(rows, 256, rng);
  const coding::MdsCode code(12, 10);
  for (auto _ : state) {
    auto parts = code.encode(a, code.partition_rows(rows));
    benchmark::DoNotOptimize(parts.data());
  }
}
BENCHMARK(BM_MdsEncode)->Arg(1200)->Arg(4800);

// One worker's whole partition as per-chunk kernel calls (run = 0) or as
// one chunk run (run = 1), at the jobs-suite GD shape (shape = 0: a
// 24 x 480 partition, one row per chunk) and the steady-n1000 shape
// (shape = 1: 16 x 48, two rows per chunk). Partition 0 of a (3, 2) code
// is systematic and fully live, so both forms compute every row.
void BM_ChunkRows(benchmark::State& state) {
  const bool gd = state.range(0) == 0;
  const bool run = state.range(1) == 1;
  const std::size_t rows = gd ? 24 : 16, cols = gd ? 480 : 48;
  const std::size_t chunks = gd ? 24 : 8;
  util::Rng rng(8);
  const auto a = linalg::Matrix::random_uniform(2 * rows, cols, rng);
  const core::CodedMatVecJob job(a, 3, 2, chunks);
  const std::size_t rpc = job.rows_per_chunk();
  linalg::Vector x(cols, 1.0), y(rows);
  for (auto _ : state) {
    if (run) {
      job.compute_chunks_into(0, 0, chunks, x, 1, y);
    } else {
      for (std::size_t c = 0; c < chunks; ++c) {
        job.compute_chunk_into(0, c, x, 1,
                               std::span<double>(y).subspan(c * rpc, rpc));
      }
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols));
}
BENCHMARK(BM_ChunkRows)->ArgsProduct({{0, 1}, {0, 1}})->ArgNames({"shape",
                                                                   "run"});

void BM_ChunkedDecode(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::size_t n = k + 3;
  const std::size_t chunks = 16, rpc = 8;
  util::Rng rng(4);
  const coding::MdsCode code(n, k);
  const auto a =
      linalg::Matrix::random_uniform(k * chunks * rpc, 64, rng);
  const auto parts = code.encode(a, chunks * rpc);
  linalg::Vector x(64, 1.0);
  // Precompute chunk results from the first k workers.
  std::vector<std::vector<std::vector<double>>> results(n);
  for (std::size_t w = 0; w < k; ++w) {
    for (std::size_t c = 0; c < chunks; ++c) {
      std::vector<double> vals(rpc);
      parts[w].matvec_rows(c * rpc, (c + 1) * rpc, x, vals);
      results[w].push_back(std::move(vals));
    }
  }
  for (auto _ : state) {
    coding::ChunkedDecoder dec(code.generator(), chunks * rpc, chunks, 1);
    for (std::size_t w = 0; w < k; ++w) {
      for (std::size_t c = 0; c < chunks; ++c) {
        dec.add_chunk_result(w, c, results[w][c]);
      }
    }
    auto out = dec.decode();
    benchmark::DoNotOptimize(out.data().data());
  }
}
BENCHMARK(BM_ChunkedDecode)->Arg(6)->Arg(10)->Arg(40);

void BM_LuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  const auto a = linalg::Matrix::random_normal(n, n, rng);
  linalg::Vector b(n, 1.0);
  for (auto _ : state) {
    const linalg::LuFactorization lu(a);
    auto x = lu.solve(b);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_LuSolve)->Arg(8)->Arg(40)->Arg(64);

void BM_ProportionalAllocation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(6);
  std::vector<double> speeds(n);
  for (auto& s : speeds) s = rng.uniform(0.1, 1.0);
  const std::size_t k = n * 4 / 5;
  for (auto _ : state) {
    auto alloc = sched::proportional_allocation(speeds, k, 2 * n);
    benchmark::DoNotOptimize(alloc.per_worker.data());
  }
}
BENCHMARK(BM_ProportionalAllocation)->Arg(12)->Arg(50)->Arg(500);

void BM_LstmStep(benchmark::State& state) {
  const predict::Lstm lstm(1, 4, 7);
  predict::Lstm::State st = lstm.initial_state();
  const double x[1] = {0.8};
  for (auto _ : state) {
    const double y = lstm.step(std::span<const double>(x, 1), st);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_LstmStep);

// The predictor phase of one round: every worker's LSTM update, through
// the per-worker virtual observe() or one batched observe_all() pass over
// the structure-of-arrays state. Both give the same bits; n = 48 is the
// jobs-suite fleet, n = 1000 steady-n1000's.
void lstm_observe_case(benchmark::State& state, bool batched, std::size_t n) {
  const predict::Lstm model(1, 4, 7);
  predict::LstmPredictor lstm(n, model);
  predict::SpeedPredictor& p = lstm;
  util::Rng rng(8);
  std::vector<double> speeds(n);
  for (double& s : speeds) s = rng.uniform(0.5, 1.5);
  for (auto _ : state) {
    if (batched) {
      p.observe_all(speeds);
    } else {
      for (std::size_t w = 0; w < n; ++w) p.observe(w, speeds[w]);
    }
    benchmark::DoNotOptimize(p.predict(n - 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

// BM_LstmObserve/<per_worker|batched>/n:N.
const bool kLstmObserveRegistered = [] {
  for (const bool batched : {false, true}) {
    for (const std::size_t n : {48, 1000}) {
      benchmark::RegisterBenchmark(
          (std::string("BM_LstmObserve/") +
           (batched ? "batched" : "per_worker") + "/n:" + std::to_string(n))
              .c_str(),
          [=](benchmark::State& state) {
            lstm_observe_case(state, batched, n);
          });
    }
  }
  return true;
}();

}  // namespace

BENCHMARK_MAIN();
