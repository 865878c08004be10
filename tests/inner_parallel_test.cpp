// Nested-parallelism regression suite: the intra-round knob
// (EngineParams::inner_jobs) composed with every outer sharding level must
// be bitwise invisible. The scenario-matrix contract under test:
//
//   cfg.inner_jobs = I;
//   run_matrix(cfg, axes, {.jobs = J})
//
// hashes identically for every (J x I) combination — outer cells shard
// across the runner's pool, each cell's engine owns an inner pool, and the
// nesting contract (src/util/thread_pool.h) keeps the two levels from
// multiplying threads: a free parallel_for inside a pool worker runs
// serial, while the engine's member parallel_for is help-first and claims
// indices from the inner pool alongside the calling cell thread.
//
// The matrix rigs are small: their chunk products (72 and 432 flops) sit
// below CodedComputeEngine::kMinParallelChunkFlops, so they pin that an
// engine holding a live inner pool still reproduces the serial run,
// nested or not. The serve rig's widest block rounds (b = 8, 576 flops per
// product) cross it and fan out; the wide-operator case in
// EngineConformance.InnerParallelBlockRoundsMatchSerialBitForBit asserts
// its own geometry above the threshold.
//
// These tests run REAL functional rounds (decode verified against the
// uncoded product), so a divergence shows up as a fingerprint diff, not
// just a crash. The suite rides in the TSan CI job
// (.github/workflows/ci.yml) so the same scenarios are also race-checked.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "src/harness/matrix_runner.h"
#include "src/harness/scenario_matrix.h"
#include "src/harness/serve.h"

namespace s2c2 {
namespace {

/// The scenario slice every combination runs: two coded engines with
/// distinct collection rules (s2c2's adaptive groups, mds's fastest-k), one
/// uncoded baseline, over two workloads (dense + sparse kernels) and two
/// trace profiles (steady groups vs. churning responder sets). Functional,
/// so products are computed and verified, not just costed.
harness::MatrixAxes regression_axes() {
  harness::MatrixAxes axes;
  axes.engines = {harness::StrategyKind::kS2C2, harness::StrategyKind::kMds,
                  harness::StrategyKind::kReplication};
  axes.workloads = {harness::WorkloadKind::kLogisticRegression,
                    harness::WorkloadKind::kPageRank};
  axes.traces = {harness::TraceProfile::kControlledStragglers,
                 harness::TraceProfile::kVolatileCloud};
  return axes;
}

harness::ScenarioConfig regression_config() {
  harness::ScenarioConfig cfg;
  cfg.functional = true;
  cfg.rounds = 4;
  return cfg;
}

TEST(InnerParallel, MatrixFingerprintInvariantAcrossJobsByInnerJobs) {
  // The headline contract: the full (outer x inner) grid hashes to the
  // serial sweep's fingerprint, cell for cell.
  harness::ScenarioConfig cfg = regression_config();
  const harness::MatrixAxes axes = regression_axes();
  const harness::MatrixResult serial =
      harness::run_matrix(cfg, axes, {.jobs = 1});
  ASSERT_FALSE(serial.cells.empty());
  for (const harness::CellResult& cell : serial.cells) {
    EXPECT_FALSE(cell.failed) << cell.error;
  }
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t inner : {std::size_t{2}, std::size_t{4}}) {
      cfg.inner_jobs = inner;
      const harness::MatrixResult sharded =
          harness::run_matrix(cfg, axes, {.jobs = jobs});
      ASSERT_EQ(sharded.cells.size(), serial.cells.size());
      for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        EXPECT_EQ(sharded.cells[i].fingerprint(),
                  serial.cells[i].fingerprint())
            << "jobs=" << jobs << " inner_jobs=" << inner << " cell " << i;
      }
      EXPECT_EQ(sharded.fingerprint(), serial.fingerprint())
          << "jobs=" << jobs << " inner_jobs=" << inner;
    }
  }
}

TEST(InnerParallel, SingleCellInvariantAcrossInnerJobs) {
  // run_cell at inner_jobs in {2, 4, 0 = hardware} against serial — the
  // config knob alone, no outer pool in the picture. Includes the decode
  // verification (functional), so the decoded bits are checked against
  // the direct product inside every run.
  harness::ScenarioConfig cfg = regression_config();
  const auto serial =
      harness::run_cell(cfg, harness::StrategyKind::kS2C2,
                        harness::WorkloadKind::kLogisticRegression,
                        harness::TraceProfile::kControlledStragglers);
  ASSERT_FALSE(serial.failed) << serial.error;
  EXPECT_TRUE(serial.decode_checked);
  for (const std::size_t inner :
       {std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
    cfg.inner_jobs = inner;
    const auto cell =
        harness::run_cell(cfg, harness::StrategyKind::kS2C2,
                          harness::WorkloadKind::kLogisticRegression,
                          harness::TraceProfile::kControlledStragglers);
    EXPECT_EQ(cell.fingerprint(), serial.fingerprint())
        << "inner_jobs=" << inner;
    EXPECT_EQ(cell.max_decode_error, serial.max_decode_error)
        << "inner_jobs=" << inner;
  }
}

TEST(InnerParallel, ServeFingerprintInvariantAcrossInnerJobs) {
  // The coalesced serving layer's multi-RHS block rounds; its whole-run
  // fingerprint — every outcome's exact bits plus the decode hit/miss
  // counters — must not move.
  harness::ServeConfig cfg;
  cfg.workers = 24;
  cfg.requests = 24;
  cfg.max_batch = 8;
  cfg.functional = true;
  const harness::ServeResult serial = harness::run_serve(cfg);
  EXPECT_GT(serial.completed, 0u);
  cfg.inner_jobs = 4;
  const harness::ServeResult inner = harness::run_serve(cfg);
  EXPECT_EQ(inner.fingerprint(), serial.fingerprint());
  EXPECT_EQ(inner.max_error, serial.max_error);
  EXPECT_EQ(inner.decode.hits, serial.decode.hits);
  EXPECT_EQ(inner.decode.misses, serial.decode.misses);
}

}  // namespace
}  // namespace s2c2
