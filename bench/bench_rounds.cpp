// End-to-end round-loop benchmark: rounds/sec through the full
// StrategyEngine lifecycle — dispatch, §4.3 collection, cached decode,
// accounting — for s2c2 and mds at fleet sizes n ∈ {100, 250, 1000} and
// round widths b ∈ {1, 8}. Unlike bench_decode_scale (decode stage only)
// this times `run_round` / `run_round_block` wall-clock on a warm engine:
// the steady state the blocked linalg kernels and the per-round arena
// optimize. Decoded products are cross-checked against the direct
// operator product before any timing is trusted.
//
// The grid carries an inner_jobs axis (EngineParams::inner_jobs in
// {1, 4, hardware}, deduped): the same warm round loop with the engine's
// chunk products fanned over the inner pool wherever each is big enough
// to pay (CodedComputeEngine::kMinParallelChunkFlops). One extra case
// sits where that layer dominates the round: s2c2 at n = 100 (k = 98) on
// a 1568 x 512 operator at b = 16, the serving layer's geometry, where
// every chunk product is 32k flops. Fingerprint invariance is enforced
// inline — every inner-parallel case's decoded product must carry the
// serial case's bits exactly.
//
// Emits a JSON snapshot (default: BENCH_rounds.json — CI uploads it
// beside BENCH_decode.json/BENCH_serve.json; reference copy checked in at
// bench/baselines/BENCH_rounds.json, stamped with the measuring machine's
// hardware_threads, CPU model and compiler) and exits nonzero if
//   (a) rounds/sec at n = 1000, inner_jobs = 1 falls below 2x the pre-PR
//       measurement recorded below, or
//   (b) on a machine with >= 4 hardware threads, warm rounds/sec of the
//       scaling case (s2c2, n = 100, 1568 x 512, b = 16) at
//       inner_jobs = 4 falls below 1.8x its inner_jobs = 1 twin (the
//       intra-round parallelism acceptance bar; on narrower machines it
//       is reported as SKIPPED — an inner pool cannot beat 1.8x without
//       at least 4 cores to run on). The bar sits where the fan-out
//       dominates the round: at n = 1000 on the 16k x 48 operator each
//       chunk product is 1.5k flops and the round's serial O(n)
//       bookkeeping caps the gain well below 1.8x on 4 threads.
//
// Pre-PR baseline (commit 89f8eb0, naive kernels + allocating round loop,
// single-core container, Release -O3, `bench_rounds 150`), rounds/sec at
// n = 1000:
//   s2c2 b=1: 191.1   s2c2 b=8: 121.4
//   mds  b=1: 212.7   mds  b=8: 114.8
// The acceptance bar asserts >= 2x these numbers; the kernel-blocking +
// allocation-elimination PR lands well above it (docs/PERFORMANCE.md).
//
// Usage: bench_rounds [rounds=12] [json_path=BENCH_rounds.json]
#include <chrono>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/engine_factory.h"
#include "src/core/strategy_config.h"
#include "src/core/strategy_engine.h"
#include "src/linalg/matrix.h"
#include "src/util/rng.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"

namespace {

using namespace s2c2;
using Clock = std::chrono::steady_clock;

// Pre-PR rounds/sec at n = 1000 (see header): the self-failing bar is 2x
// these. Indexed [strategy][width] as laid out in kCaseGrid below.
constexpr double kPrePrS2c2B1 = 191.1;
constexpr double kPrePrS2c2B8 = 121.4;
constexpr double kPrePrMdsB1 = 212.7;
constexpr double kPrePrMdsB8 = 114.8;
constexpr double kAcceptFactor = 2.0;
// Intra-round parallelism bar: warm rounds/sec of the scaling case at
// inner_jobs = 4 vs. its serial twin. Enforced only when the machine has
// >= kScalingMinThreads hardware threads (below that the inner pool is
// oversubscribed and the bar is physically unreachable).
constexpr double kInnerScalingFactor = 1.8;
constexpr std::size_t kScalingMinThreads = 4;
// The scaling case: the serving geometry, 16 rows per partition of a
// 512-column operator at n = 100, block width 16.
constexpr std::size_t kScalingN = 100;
constexpr std::size_t kScalingCols = 512;
constexpr std::size_t kScalingWidth = 16;
constexpr std::size_t kScalingInner = 4;

// The host's CPU model ("model name" in /proc/cpuinfo), or "unknown".
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Case {
  core::StrategyKind strategy = core::StrategyKind::kMds;
  std::size_t n = 0;
  std::size_t k = 0;
  std::size_t cols = 0;  // operator columns
  std::size_t width = 0;
  std::size_t inner_jobs = 1;
  std::size_t rounds = 0;
  double ms_per_round = 0.0;
  double rounds_per_sec = 0.0;
  double max_err = 0.0;  // decoded vs direct product, column 0
  // Column 0 of the last warm decoded product — the inner-parallel cases
  // are checked bit-for-bit against their serial twin's copy.
  linalg::Vector decoded0;
};

/// Mildly heterogeneous constant-speed fleet: speeds uniform in
/// [0.7, 1.3), stable in time, so the oracle predicts exactly, the §4.3
/// timeout never fires, and every round reuses one cached responder-set
/// factorization — the steady state this bench is about.
core::ClusterSpec make_fleet(std::size_t n, util::Rng& rng) {
  core::ClusterSpec spec;
  spec.traces.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    spec.traces.push_back(sim::SpeedTrace::constant(rng.uniform(0.7, 1.3)));
  }
  spec.worker_flops = 1e7;
  spec.master_flops = 1e9;
  return spec;
}

Case run_case(core::StrategyKind strategy, std::size_t n, std::size_t width,
              std::size_t inner_jobs, std::size_t rounds,
              const linalg::Matrix& a) {
  Case c;
  c.strategy = strategy;
  c.n = n;
  c.k = n - 2;
  c.cols = a.cols();
  c.width = width;
  c.inner_jobs = inner_jobs;
  c.rounds = rounds;

  // Case-local seed, pure in (strategy, n, width): every inner_jobs
  // variant of a case runs the identical fleet and input panel, so the
  // decoded-bits cross-check below compares like with like.
  util::Rng rng(0x5eedull ^ (static_cast<std::uint64_t>(n) << 8) ^
                (static_cast<std::uint64_t>(width) << 32) ^
                (static_cast<std::uint64_t>(strategy) << 40));

  core::EngineParams p;
  p.cluster = make_fleet(n, rng);
  p.dense = &a;
  p.k = c.k;
  p.chunks_per_partition = 8;
  p.oracle_speeds = true;
  p.inner_jobs = inner_jobs;
  std::unique_ptr<core::StrategyEngine> engine =
      core::make_engine(strategy, std::move(p));

  linalg::Matrix x_block(a.cols(), width);
  for (double& v : x_block.mutable_data()) v = rng.normal();
  const linalg::Vector x(x_block.data().begin(),
                         x_block.data().begin() +
                             static_cast<std::ptrdiff_t>(a.cols() * width));

  // Direct-product reference for the sanity cross-check (column 0 of the
  // panel at b > 1; x itself at b = 1).
  linalg::Vector x0(a.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) x0[i] = x_block(i, 0);
  const linalg::Vector truth = a.matvec(x0);

  auto run_once = [&]() {
    return width == 1 ? engine->run_round(x)
                      : engine->run_round_block(x_block, width);
  };

  // Warm-up: populate the decode-context cache and any retained scratch;
  // the timed loop below is the steady state. Results are recycled so the
  // engine's result pool is warm too — the contract under which
  // run_round is allocation-free (tests/arena_test.cpp).
  for (int w = 0; w < 3; ++w) {
    core::RoundResult r = run_once();
    linalg::Vector got;
    if (width == 1) {
      got = *r.y;
    } else {
      got.resize(r.y_block->rows());
      for (std::size_t i = 0; i < got.size(); ++i) got[i] = (*r.y_block)(i, 0);
    }
    for (std::size_t i = 0; i < truth.size(); ++i) {
      c.max_err = std::max(c.max_err, std::abs(got[i] - truth[i]));
    }
    c.decoded0 = std::move(got);
    engine->recycle(std::move(r));
  }

  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) engine->recycle(run_once());
  const double s = seconds_since(t0);
  c.ms_per_round = 1e3 * s / static_cast<double>(rounds);
  c.rounds_per_sec = static_cast<double>(rounds) / s;
  return c;
}

void write_json(const std::string& path, const std::vector<Case>& cases) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"rounds\",\n  \"unit\": \"rounds_per_sec\",\n"
      << "  \"hardware_threads\": " << util::ThreadPool::hardware_threads()
      << ",\n  \"cpu\": \"" << cpu_model() << "\",\n"
      << "  \"compiler\": \"" << __VERSION__ << "\",\n"
      << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    out << "    {\"strategy\": \"" << core::strategy_name(c.strategy)
        << "\", \"n\": " << c.n << ", \"k\": " << c.k
        << ", \"cols\": " << c.cols << ", \"width\": " << c.width
        << ", \"inner_jobs\": " << c.inner_jobs
        << ", \"rounds\": " << c.rounds
        << ", \"ms_per_round\": " << c.ms_per_round
        << ", \"rounds_per_sec\": " << c.rounds_per_sec
        << ", \"max_abs_err\": " << c.max_err << "}"
        << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t base_rounds = argc > 1 ? std::stoul(argv[1]) : 12;
  const std::string json_path = argc > 2 ? argv[2] : "BENCH_rounds.json";

  std::cout << "Round-loop throughput — full run_round/run_round_block "
               "lifecycle on a warm engine\n"
            << "oracle speeds, stable fleet, 8 chunks/partition, operator "
               "16(n-2) x 48 (scaling case: 16(n-2) x 512);\ndecoded "
               "products cross-checked to 1e-6.\n\n";

  const std::size_t hw = util::ThreadPool::hardware_threads();
  std::vector<std::size_t> inner_axis = {1, 4};
  if (hw != 1 && hw != 4) inner_axis.push_back(hw);

  util::Rng rng(0x5eedull);
  std::vector<Case> cases;
  for (const core::StrategyKind strategy :
       {core::StrategyKind::kS2C2, core::StrategyKind::kMds}) {
    for (const std::size_t n : {100u, 250u, 1000u}) {
      const std::size_t k = n - 2;
      // 16 rows per partition: the worker kernel does real tile-sized
      // work while encode setup stays cheap at n = 1000.
      const linalg::Matrix a =
          linalg::Matrix::random_uniform(16 * k, 48, rng);
      for (const std::size_t width : {1u, 8u}) {
        // Fewer timed rounds at the big sizes; the floor keeps timings
        // meaningful when the arg dials rounds down.
        const std::size_t rounds =
            std::max<std::size_t>(4, base_rounds * 100 / n);
        for (const std::size_t inner : inner_axis) {
          cases.push_back(run_case(strategy, n, width, inner, rounds, a));
        }
      }
    }
  }
  {
    const linalg::Matrix a = linalg::Matrix::random_uniform(
        16 * (kScalingN - 2), kScalingCols, rng);
    const std::size_t rounds =
        std::max<std::size_t>(4, base_rounds * 100 / kScalingN);
    for (const std::size_t inner : {std::size_t{1}, kScalingInner}) {
      cases.push_back(run_case(core::StrategyKind::kS2C2, kScalingN,
                               kScalingWidth, inner, rounds, a));
    }
  }

  util::Table t({"strategy", "n", "k", "cols", "b", "inner", "rounds",
                 "ms/round", "rounds/sec", "max |err|"});
  for (const Case& c : cases) {
    t.add_row({core::strategy_name(c.strategy), std::to_string(c.n),
               std::to_string(c.k), std::to_string(c.cols),
               std::to_string(c.width),
               std::to_string(c.inner_jobs), std::to_string(c.rounds),
               util::fmt(c.ms_per_round, 3), util::fmt(c.rounds_per_sec, 2),
               util::fmt_sci(c.max_err)});
  }
  t.print();
  write_json(json_path, cases);
  std::cout << "\nwrote " << json_path << " (hardware_threads=" << hw
            << ")\n";

  // Serial twin of a case: same (strategy, n, cols, width) at
  // inner_jobs = 1.
  auto serial_twin = [&cases](const Case& c) -> const Case* {
    for (const Case& s : cases) {
      if (s.inner_jobs == 1 && s.strategy == c.strategy && s.n == c.n &&
          s.cols == c.cols && s.width == c.width) {
        return &s;
      }
    }
    return nullptr;
  };

  bool ok = true;
  for (const Case& c : cases) {
    if (c.max_err > 1e-6) {
      std::cout << "FAIL: decoded product off by " << c.max_err << " at "
                << core::strategy_name(c.strategy) << " n=" << c.n
                << " b=" << c.width << " inner=" << c.inner_jobs << "\n";
      ok = false;
    }
    // Determinism: every inner-parallel case must reproduce its serial
    // twin's decoded bits exactly — not approximately.
    if (c.inner_jobs > 1) {
      const Case* s = serial_twin(c);
      bool same = s != nullptr && s->decoded0.size() == c.decoded0.size();
      for (std::size_t i = 0; same && i < c.decoded0.size(); ++i) {
        same = s->decoded0[i] == c.decoded0[i];
      }
      if (!same) {
        std::cout << "FAIL: decoded bits at inner_jobs=" << c.inner_jobs
                  << " differ from serial at "
                  << core::strategy_name(c.strategy) << " n=" << c.n
                  << " b=" << c.width << "\n";
        ok = false;
      }
    }
    if (c.n != 1000 || c.inner_jobs != 1) continue;
    const bool s2c2 = c.strategy == core::StrategyKind::kS2C2;
    const double pre = s2c2 ? (c.width == 1 ? kPrePrS2c2B1 : kPrePrS2c2B8)
                            : (c.width == 1 ? kPrePrMdsB1 : kPrePrMdsB8);
    const double bar = kAcceptFactor * pre;
    if (c.rounds_per_sec < bar) {
      std::cout << "FAIL: " << core::strategy_name(c.strategy)
                << " n=1000 b=" << c.width << " " << c.rounds_per_sec
                << " rounds/sec < " << bar << " (" << kAcceptFactor
                << "x pre-PR " << pre << ")\n";
      ok = false;
    }
  }
  if (ok) {
    std::cout << "acceptance: >= " << kAcceptFactor
              << "x pre-PR rounds/sec at n=1000 (inner_jobs=1) — PASS\n";
  }

  // Intra-round scaling bar: the scaling case at inner_jobs = 4 must beat
  // 1.8x its serial twin — on machines with enough cores to make that
  // physically possible.
  const std::string where = "s2c2 n=" + std::to_string(kScalingN) + " " +
                            std::to_string(16 * (kScalingN - 2)) + "x" +
                            std::to_string(kScalingCols) +
                            " b=" + std::to_string(kScalingWidth) +
                            " inner_jobs=" + std::to_string(kScalingInner);
  if (hw < kScalingMinThreads) {
    std::cout << "scaling bar (" << kInnerScalingFactor << "x at " << where
              << "): SKIPPED — hardware_threads=" << hw << " < "
              << kScalingMinThreads << "\n";
  } else {
    for (const Case& c : cases) {
      if (c.cols != kScalingCols || c.inner_jobs != kScalingInner) continue;
      const Case* s = serial_twin(c);
      const double ratio = c.rounds_per_sec / s->rounds_per_sec;
      if (ratio < kInnerScalingFactor) {
        std::cout << "FAIL: " << where << " " << util::fmt(ratio, 2)
                  << "x serial < " << kInnerScalingFactor << "x ("
                  << c.rounds_per_sec << " vs " << s->rounds_per_sec
                  << " rounds/sec)\n";
        ok = false;
      } else {
        std::cout << "scaling: " << where << " at " << util::fmt(ratio, 2)
                  << "x serial — PASS\n";
      }
    }
  }
  return ok ? 0 : 1;
}
