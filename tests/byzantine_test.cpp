// Byzantine-robust decode verification (docs/DESIGN.md §7).
//
// Decoder level: property tests of ChunkedDecoder::verify_chunks — the
// redundant-residual check is sound for up to r - k - 1 corrupted
// responders per chunk, has no false positives on clean data at a 1e-9
// tolerance, and the voting pass distrusts a convicted responder on every
// chunk. Engine/harness level: coded engines complete byzantine rounds
// with exact decodes while booking the corrupted work as waste; the
// uncoded baselines fail deterministically; detection counts and
// fingerprints are bit-stable at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <vector>

#include "src/coding/chunked_decoder.h"
#include "src/coding/mds_code.h"
#include "src/core/engine.h"
#include "src/harness/job_driver.h"
#include "src/harness/matrix_runner.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace s2c2 {
namespace {

using coding::ChunkedDecoder;
using coding::ChunkVerification;
using coding::MdsCode;
using coding::ParityKind;

constexpr double kTol = 1e-9;

/// Encoded partitions of a random operator plus ground truth (the
/// chunked_decoder_test fixture, with a corruption hook).
struct Fixture {
  Fixture(std::size_t n, std::size_t k, std::size_t rows, std::size_t cols,
          ParityKind kind, std::uint64_t seed)
      : code(n, k, kind), rng(seed) {
    a = linalg::Matrix::random_uniform(rows, cols, rng);
    parts = code.encode(a, code.partition_rows(rows));
    x.resize(cols);
    for (auto& v : x) v = rng.normal();
    truth = a.matvec(x);
  }
  MdsCode code;
  util::Rng rng;
  linalg::Matrix a;
  std::vector<coding::EncodedPartition> parts;
  linalg::Vector x;
  linalg::Vector truth;

  std::vector<double> chunk_values(std::size_t worker, std::size_t chunk,
                                   std::size_t rpc, bool corrupt) const {
    std::vector<double> out(rpc);
    parts[worker].matvec_rows(chunk * rpc, (chunk + 1) * rpc, x, out);
    if (corrupt) {
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] += 1e3 * (1.0 + static_cast<double>(worker + chunk + i));
      }
    }
    return out;
  }

  void expect_exact_decode(ChunkedDecoder& dec) const {
    ASSERT_TRUE(dec.decodable());
    const auto out = dec.decode();
    double max_err = 0.0;
    for (std::size_t r = 0; r < truth.size(); ++r) {
      max_err = std::max(max_err, std::abs(out(r, 0) - truth[r]));
    }
    EXPECT_LT(max_err, kTol);
  }
};

struct CleanParam {
  std::size_t n, k, chunks, rpc;
  ParityKind kind;
};

// Names each case from its fields. Without it gtest dumps the struct's
// bytes, padding included, and the discovered test names change from
// build to build.
void PrintTo(const CleanParam& p, std::ostream* os) {
  *os << "n" << p.n << " k" << p.k << " " << p.chunks << " chunks x "
      << p.rpc << " rows "
      << (p.kind == ParityKind::kGaussian ? "gaussian" : "vandermonde");
}

class CleanVerification : public ::testing::TestWithParam<CleanParam> {};

// Zero false positives: honest chunks with full redundancy pass the
// residual check at a 1e-9 tolerance and convict nobody.
TEST_P(CleanVerification, HonestChunksNeverConvicted) {
  const auto p = GetParam();
  Fixture f(p.n, p.k, p.k * p.chunks * p.rpc, 5, p.kind, 100 + p.n + p.k);
  ChunkedDecoder dec(f.code.generator(), p.chunks * p.rpc, p.chunks, 1);
  for (std::size_t c = 0; c < p.chunks; ++c) {
    for (std::size_t w = 0; w < p.n; ++w) {
      dec.add_chunk_result(w, c, f.chunk_values(w, c, p.rpc, false));
    }
  }
  const ChunkVerification v = dec.verify_chunks(kTol);
  EXPECT_TRUE(v.corrupt_workers.empty());
  EXPECT_EQ(v.corrupted_chunks, 0u);
  EXPECT_EQ(v.verified_chunks, p.chunks);
  EXPECT_LE(v.max_clean_residual, kTol);
  f.expect_exact_decode(dec);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CleanVerification,
    ::testing::Values(CleanParam{4, 2, 3, 2, ParityKind::kVandermonde},
                      CleanParam{6, 3, 4, 1, ParityKind::kVandermonde},
                      CleanParam{6, 4, 2, 3, ParityKind::kGaussian},
                      CleanParam{10, 7, 5, 1, ParityKind::kGaussian},
                      CleanParam{12, 8, 4, 2, ParityKind::kGaussian}));

TEST(ByzantineVerify, SingleCorruptedResponderConvictedEverywhere) {
  for (const ParityKind kind :
       {ParityKind::kVandermonde, ParityKind::kGaussian}) {
    Fixture f(6, 3, 9, 4, kind, 7);
    ChunkedDecoder dec(f.code.generator(), 3, 3, 1);
    for (std::size_t c = 0; c < 3; ++c) {
      for (std::size_t w = 0; w < 6; ++w) {
        dec.add_chunk_result(w, c, f.chunk_values(w, c, 1, w == 2));
      }
    }
    const ChunkVerification v = dec.verify_chunks(kTol);
    EXPECT_EQ(v.corrupt_workers, (std::vector<std::size_t>{2}));
    EXPECT_EQ(v.corrupted_chunks, 3u);
    EXPECT_EQ(v.verified_chunks, 3u);
    // Conviction pruned worker 2 from every chunk before decode.
    for (std::size_t c = 0; c < 3; ++c) {
      const auto resp = dec.responders(c);
      EXPECT_EQ(std::count(resp.begin(), resp.end(), 2u), 0) << "chunk " << c;
    }
    f.expect_exact_decode(dec);
  }
}

// A NaN response is corruption too: std::max would drop a NaN residual
// and pass the chunk as clean, so the check must read it as infinite.
TEST(ByzantineVerify, NaNParityResponseConvicted) {
  for (const ParityKind kind :
       {ParityKind::kVandermonde, ParityKind::kGaussian}) {
    Fixture f(6, 4, 8, 4, kind, 19);
    ChunkedDecoder dec(f.code.generator(), 2, 2, 1);
    for (std::size_t c = 0; c < 2; ++c) {
      for (std::size_t w = 0; w < 6; ++w) {
        std::vector<double> values = f.chunk_values(w, c, 1, false);
        if (w == 5) values[0] = std::numeric_limits<double>::quiet_NaN();
        dec.add_chunk_result(w, c, values);
      }
    }
    const ChunkVerification v = dec.verify_chunks(kTol);
    EXPECT_EQ(v.corrupt_workers, (std::vector<std::size_t>{5}));
    EXPECT_EQ(v.corrupted_chunks, 2u);
    EXPECT_EQ(v.verified_chunks, 2u);
    f.expect_exact_decode(dec);
  }
}

// Soundness up to the per-chunk budget: randomized corruption patterns x
// responder sets. Every chunk keeps >= k + 1 honest responders, so each
// corrupt subset stays within its chunk's r - k - 1 exclusion budget and
// the minimal-exclusion search must convict exactly the corrupted set.
TEST(ByzantineVerify, RandomizedCorruptionSweepConvictsExactly) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    util::Rng rng(900 + seed);
    const std::size_t n =
        6 + static_cast<std::size_t>(rng.uniform_int(0, 6));  // 6..12
    // k in [3, n - 3] keeps the whole-cluster budget n - k - 1 >= 2.
    const std::size_t k =
        3 + static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(n) - 6));
    const std::size_t budget = n - k - 1;
    const std::size_t e =
        1 + static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(budget) - 1));
    const std::size_t chunks = 3;
    Fixture f(n, k, k * chunks, 4, ParityKind::kGaussian, 40 + seed);
    ChunkedDecoder dec(f.code.generator(), chunks, chunks, 1);

    // Corrupt workers: e distinct ids.
    std::vector<std::size_t> ids(n);
    for (std::size_t w = 0; w < n; ++w) ids[w] = w;
    f.rng.shuffle(ids);
    const std::vector<std::size_t> corrupt(ids.begin(), ids.begin() + e);
    const auto is_corrupt = [&](std::size_t w) {
      return std::find(corrupt.begin(), corrupt.end(), w) != corrupt.end();
    };

    // Per chunk: all corrupt workers respond plus a random >= k + 1 honest
    // subset, so e <= r - k - 1 holds chunk-wise.
    for (std::size_t c = 0; c < chunks; ++c) {
      std::vector<std::size_t> honest;
      for (std::size_t w = 0; w < n; ++w) {
        if (!is_corrupt(w)) honest.push_back(w);
      }
      f.rng.shuffle(honest);
      const std::size_t h =
          k + 1 +
          static_cast<std::size_t>(f.rng.uniform_int(
              0, static_cast<std::int64_t>(honest.size() - k - 1)));
      honest.resize(h);
      for (const std::size_t w : honest) {
        dec.add_chunk_result(w, c, f.chunk_values(w, c, 1, false));
      }
      for (const std::size_t w : corrupt) {
        dec.add_chunk_result(w, c, f.chunk_values(w, c, 1, true));
      }
    }
    const ChunkVerification v = dec.verify_chunks(kTol);
    std::vector<std::size_t> expected = corrupt;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(v.corrupt_workers, expected) << "seed " << seed;
    EXPECT_EQ(v.corrupted_chunks, chunks) << "seed " << seed;
    f.expect_exact_decode(dec);
  }
}

TEST(ByzantineVerify, CorruptionBeyondBudgetThrows) {
  // r = 5 responders, k = 3: budget r - k - 1 = 1, but two responders are
  // corrupted — no in-budget exclusion restores consistency.
  Fixture f(5, 3, 6, 4, ParityKind::kGaussian, 11);
  ChunkedDecoder dec(f.code.generator(), 2, 2, 1);
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t w = 0; w < 5; ++w) {
      dec.add_chunk_result(w, c, f.chunk_values(w, c, 1, w >= 3));
    }
  }
  EXPECT_THROW((void)dec.verify_chunks(kTol), std::runtime_error);
}

TEST(ByzantineVerify, VotingPruneBelowKThrows) {
  // Worker 5 is convicted on chunk 0 (full redundancy there) but is also
  // one of exactly k responders on chunk 1 — distrusting it everywhere
  // leaves chunk 1 undecodable, which must surface as a cluster failure.
  Fixture f(6, 3, 6, 4, ParityKind::kGaussian, 13);
  ChunkedDecoder dec(f.code.generator(), 2, 2, 1);
  for (std::size_t w = 0; w < 6; ++w) {
    dec.add_chunk_result(w, 0, f.chunk_values(w, 0, 1, w == 5));
  }
  for (const std::size_t w : {0u, 1u, 5u}) {
    dec.add_chunk_result(w, 1, f.chunk_values(w, 1, 1, false));
  }
  EXPECT_THROW((void)dec.verify_chunks(kTol), std::runtime_error);
}

TEST(ByzantineVerify, ChunksWithoutRedundancyAreSkipped) {
  Fixture f(6, 3, 6, 4, ParityKind::kVandermonde, 17);
  ChunkedDecoder dec(f.code.generator(), 2, 2, 1);
  // Chunk 0: exactly k results (unverifiable); chunk 1: k + 2 results.
  for (const std::size_t w : {0u, 1u, 2u}) {
    dec.add_chunk_result(w, 0, f.chunk_values(w, 0, 1, false));
  }
  for (const std::size_t w : {0u, 1u, 2u, 3u, 4u}) {
    dec.add_chunk_result(w, 1, f.chunk_values(w, 1, 1, false));
  }
  const ChunkVerification v = dec.verify_chunks(kTol);
  EXPECT_EQ(v.verified_chunks, 1u);
  EXPECT_EQ(v.corrupted_chunks, 0u);
  f.expect_exact_decode(dec);
}

// ---- engine level ---------------------------------------------------------

TEST(ByzantineEngine, DecodesExactlyAndBooksCorruptWorkAsWaste) {
  test::FunctionalMatVec f(12, 10);
  core::ClusterSpec spec = test::make_spec(test::uniform_traces(12));
  spec.byzantine.corrupt_workers = {11};  // e = 1 = n - k - 1
  spec.byzantine.seed = 99;
  core::EngineConfig cfg;
  cfg.chunks_per_partition = test::kChunks;
  cfg.oracle_speeds = true;
  core::CodedComputeEngine engine(f.job, spec, cfg);
  for (int round = 0; round < 3; ++round) {
    const core::RoundResult r = engine.run_round(f.x);
    ASSERT_TRUE(r.y.has_value());
    test::expect_close(*r.y, f.truth, 1e-9);
    EXPECT_EQ(r.stats.byzantine_detected, 1u);
    EXPECT_GT(r.stats.corrupted_chunks, 0u);
  }
  // The corrupted responder's compute is discarded, never credited.
  const sim::WorkerAccount& acct = engine.accounting().worker(11);
  EXPECT_EQ(acct.useful_work, 0.0);
  EXPECT_GT(acct.wasted_work, 0.0);
}

TEST(ByzantineEngine, ToleranceTaxonomyMatchesStrategies) {
  using core::StrategyKind;
  EXPECT_TRUE(core::strategy_tolerates_byzantine(StrategyKind::kS2C2));
  EXPECT_TRUE(core::strategy_tolerates_byzantine(StrategyKind::kMds));
  EXPECT_TRUE(core::strategy_tolerates_byzantine(StrategyKind::kPoly));
  EXPECT_FALSE(
      core::strategy_tolerates_byzantine(StrategyKind::kReplication));
  EXPECT_FALSE(core::strategy_tolerates_byzantine(StrategyKind::kOverDecomp));
}

// ---- harness level --------------------------------------------------------

harness::ScenarioConfig byz_config(bool functional) {
  harness::ScenarioConfig cfg;  // workers 12, k n-2, rounds 6, seed 42
  cfg.functional = functional;
  return cfg;
}

TEST(ByzantineCell, FunctionalCellDecodesWithinAcceptance) {
  const auto cell = harness::run_cell(
      byz_config(true), harness::StrategyKind::kS2C2,
      harness::WorkloadKind::kLogisticRegression,
      harness::TraceProfile::kByzantine);
  ASSERT_FALSE(cell.failed) << cell.error;
  EXPECT_TRUE(cell.decode_checked);
  EXPECT_LE(cell.max_decode_error, 1e-9);
  // e = min(n - k - 1, max(1, n/8)) = 1 corrupt worker, detected each round.
  EXPECT_EQ(cell.byzantine_detected, cell.rounds);
  EXPECT_GT(cell.corrupted_chunks, 0u);
  EXPECT_GT(cell.total_wasted, 0.0);
}

TEST(ByzantineCell, CostOnlyDetectionCountsAreExact) {
  const auto cell = harness::run_cell(
      byz_config(false), harness::StrategyKind::kS2C2,
      harness::WorkloadKind::kPageRank, harness::TraceProfile::kByzantine);
  ASSERT_FALSE(cell.failed) << cell.error;
  EXPECT_EQ(cell.byzantine_detected, cell.rounds);  // e = 1 per round
  EXPECT_GT(cell.corrupted_chunks, 0u);
}

TEST(ByzantineCell, UncodedBaselinesFailDeterministically) {
  for (const auto engine : {harness::StrategyKind::kReplication,
                            harness::StrategyKind::kOverDecomp}) {
    const auto first = harness::run_cell(
        byz_config(false), engine, harness::WorkloadKind::kLogisticRegression,
        harness::TraceProfile::kByzantine);
    const auto second = harness::run_cell(
        byz_config(false), engine, harness::WorkloadKind::kLogisticRegression,
        harness::TraceProfile::kByzantine);
    EXPECT_TRUE(first.failed);
    EXPECT_NE(first.error.find("byzantine"), std::string::npos) << first.error;
    EXPECT_EQ(first.fingerprint(), second.fingerprint());
  }
}

TEST(ByzantineCell, PolyEngineSurvivesByzantineOnItsHomeWorkload) {
  const auto cell = harness::run_cell(
      byz_config(true), harness::StrategyKind::kPoly,
      harness::WorkloadKind::kHessian, harness::TraceProfile::kByzantine);
  ASSERT_FALSE(cell.failed) << cell.error;
  EXPECT_TRUE(cell.decode_checked);
  EXPECT_LE(cell.max_decode_error, 1e-9);
  EXPECT_GT(cell.byzantine_detected, 0u);
}

TEST(ByzantineJob, CodedJobCompletesWithExactTrajectory) {
  harness::JobConfig cfg;
  cfg.app = harness::JobApp::kPageRank;
  cfg.strategy = harness::StrategyKind::kS2C2;
  cfg.trace = harness::TraceProfile::kByzantine;
  cfg.max_iterations = 4;
  const auto job = harness::run_job(cfg);
  ASSERT_FALSE(job.failed) << job.error;
  EXPECT_GT(job.byzantine_detected, 0u);
  EXPECT_GT(job.corrupted_chunks, 0u);
  EXPECT_LT(job.solution_error, 1e-8);
}

TEST(ByzantineJob, UncodedJobRecordsDeterministicFailure) {
  harness::JobConfig cfg;
  cfg.app = harness::JobApp::kLogReg;
  cfg.strategy = harness::StrategyKind::kReplication;
  cfg.trace = harness::TraceProfile::kByzantine;
  cfg.max_iterations = 3;
  const auto first = harness::run_job(cfg);
  const auto second = harness::run_job(cfg);
  EXPECT_TRUE(first.failed);
  EXPECT_NE(first.error.find("byzantine"), std::string::npos) << first.error;
  EXPECT_EQ(first.fingerprint(), second.fingerprint());
}

}  // namespace
}  // namespace s2c2
