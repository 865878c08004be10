// Golden-fingerprint guard for the refactor-sensitive sweeps.
//
// These fingerprints hash the exact bit patterns of every simulated round
// (latencies, accounting totals, decode errors) for pinned seeds, so ANY
// behavioral drift in the engines, the round lifecycle, the harness
// salting, or the predictor plumbing shows up as a mismatch here — even a
// last-bit change in one double. Refactors (engine unification, executor
// changes) must keep every golden byte-identical; a legitimate
// behavioral change must update them in the same commit that explains why.
//
// To regenerate after an intentional change: run this suite and copy the
// "actual" values from the failure messages. (Do NOT copy fingerprints
// from the CLIs: scenario_cli --matrix goes through the widened
// matrix-runner grid and repro_cli through ReportConfig defaults, both of
// which hash different cell sets than the plain sweeps pinned here.)
//
// Caveat (same as docs/ARCHITECTURE.md's determinism contract): the values
// are stable per toolchain — one compiler/libm pair reproduces them
// bit-for-bit at any optimization level or thread count, but a different
// libm may legitimately move low-order bits. CI pins one toolchain.
#include <gtest/gtest.h>

#include "src/harness/job_driver.h"
#include "src/harness/matrix_runner.h"
#include "src/harness/serve.h"

namespace s2c2 {
namespace {

// Pinned at PR 5 (engine unification), seed 42.
// Re-pinned when poly joined the one accounting path: its dispatch now
// evaluates (chunks · flops) / worker_flops, moving 6 poly cells by <= 4.5e-16
// relative.
constexpr char kSmallCostOnlyGolden[] = "dd701a1285133295";
constexpr char kSmallFunctionalGolden[] = "5459bbe40e4c045d";
constexpr char kLargeScaleCellGolden[] = "52243eed9f56ea89";
// Re-pinned when misprediction_rate became the per-round rate (rounds with
// any worker off by > 15%); every other JobResult field is byte-identical.
// Re-pinned when over-decomposition began counting mis-predicted rounds by
// the same rule: only its 8 jobs' misprediction_rate moved.
constexpr char kJobSuiteGolden[] = "035b0660dd995ebc";
// Pinned at PR 6 (telemetry + byzantine verification), seed 42. Unlike the
// PR 5 goldens, robustness-profile cells also hash the byzantine/health
// counters (byzantine_detected, corrupted_chunks, degrading_workers,
// health_min_ttf), so this golden additionally guards the detection and
// telemetry pipelines — and the uncoded baselines' deterministic failures.
// Re-pinned when poly joined the one accounting path: its cancelled
// Byzantine workers are observed unclamped, moving the 4 poly x byzantine
// cells (and the 2 poly x fail-slow cells by <= 6.8e-16 relative).
constexpr char kRobustnessSliceGolden[] = "3e346d8dabd7ba5e";
// Pinned at PR 8 (rateless-LT + adaptive gradient coding), seed 42: the
// new kinds got NEW engine-axis ids (lt=4, agc=5) rather than renumbering
// the legacy wire ids, so this golden guards the new engines' full
// functional path (threshold collection, peel decode, per-round
// redundancy) while the PR 5/6 goldens above must stay byte-identical.
constexpr char kLtAgcSliceGolden[] = "21727bca44e20aec";
// Seed 42: coalesced s2c2 block rounds of every width up to 16 on volatile
// traces, so the block kernels, the block decode and the serve verification
// are all hashed (each outcome, max_error and the served products' bits).
// Re-pinned on the 2 x 8 register tile when the fingerprint began hashing
// the served products: max_error alone let a one-ulp kernel change pass.
constexpr char kServeBlockRoundsGolden[] = "a446ae4ba143b4fe";

harness::ScenarioConfig base_config() {
  harness::ScenarioConfig cfg;  // workers 12, k n-2, rounds 6, seed 42
  return cfg;
}

TEST(FingerprintGuard, SmallCostOnlyMatrix) {
  const auto m = harness::run_scenario_matrix(base_config());
  EXPECT_EQ(m.fingerprint(), kSmallCostOnlyGolden);
}

TEST(FingerprintGuard, SmallFunctionalMatrix) {
  harness::ScenarioConfig cfg = base_config();
  cfg.functional = true;
  const auto m = harness::run_scenario_matrix(cfg);
  EXPECT_EQ(m.fingerprint(), kSmallFunctionalGolden);
}

// One thousand-worker cell (k = 998 by the n - 2 rule, stragglers
// rescaled): exercises the cached decode path and the proportional
// allocator at fleet scale.
TEST(FingerprintGuard, LargeScaleCell) {
  const harness::ScenarioConfig cfg =
      harness::cell_config(base_config(), 1000, harness::PredictorKind::kOracle);
  const auto cell =
      harness::run_cell(cfg, harness::StrategyKind::kS2C2,
                        harness::WorkloadKind::kLogisticRegression,
                        harness::TraceProfile::kControlledStragglers);
  EXPECT_FALSE(cell.failed) << cell.error;
  EXPECT_EQ(cell.fingerprint(), kLargeScaleCellGolden);
}

// The byzantine + fail-slow slice of the robustness sweep (every engine x
// workload on the last-value predictor), run serially and on a 4-thread
// pool: the two results must be byte-identical (the runner's determinism
// contract) and match the pinned golden.
TEST(FingerprintGuard, RobustnessSliceMatrix) {
  harness::MatrixAxes axes = harness::MatrixAxes::robustness();
  axes.traces = {harness::TraceProfile::kFailSlow,
                 harness::TraceProfile::kByzantine};
  const auto serial =
      harness::run_matrix(base_config(), axes, {.jobs = 1});
  const auto pooled =
      harness::run_matrix(base_config(), axes, {.jobs = 4});
  EXPECT_EQ(serial.fingerprint(), pooled.fingerprint());
  EXPECT_EQ(serial.fingerprint(), kRobustnessSliceGolden);
}

// The {lt, agc} functional slice over a dense and a sparse workload on
// the original controlled/volatile traces: threshold collection and the
// peel decoder (lt) plus predicted-straggler redundancy (agc), end to end
// with verified decodes.
TEST(FingerprintGuard, LtAgcSliceMatrix) {
  harness::ScenarioConfig cfg = base_config();
  cfg.functional = true;
  const std::vector<harness::StrategyKind> engines = {
      harness::StrategyKind::kLt, harness::StrategyKind::kAgc};
  const std::vector<harness::WorkloadKind> workloads = {
      harness::WorkloadKind::kLogisticRegression,
      harness::WorkloadKind::kPageRank};
  const std::vector<harness::TraceProfile> traces = {
      harness::TraceProfile::kControlledStragglers,
      harness::TraceProfile::kVolatileCloud};
  const auto m = harness::run_scenario_matrix(cfg, engines, workloads, traces);
  for (const auto& cell : m.cells) {
    EXPECT_FALSE(cell.failed) << cell.error;
    EXPECT_TRUE(cell.decode_checked);
    EXPECT_LT(cell.max_decode_error, 1e-9);
  }
  EXPECT_EQ(m.fingerprint(), kLtAgcSliceGolden);
}

// A functional s2c2 serve run whose coalesced rounds span widths below and
// above the 8-column tile (ragged tails included). One row per chunk and
// an odd operator height make odd-length chunk runs and an odd verified
// product, so the one-row remainder tile runs too.
TEST(FingerprintGuard, ServeBlockRounds) {
  harness::ServeConfig cfg;  // workers 12, k n-2, seed 42
  cfg.trace = harness::TraceProfile::kVolatileCloud;
  cfg.requests = 160;
  cfg.load_factor = 2.0;
  cfg.max_batch = 16;
  cfg.op_rows = 251;  // 26-row partitions, 17 live rows in the last one
  cfg.op_cols = 40;
  cfg.chunks_per_partition = 26;
  const harness::ServeResult r = harness::run_serve(cfg);
  std::size_t narrow = 0, full = 0;
  for (const harness::RequestOutcome& o : r.outcomes) {
    narrow += o.width < 8 ? 1 : 0;
    full += o.width == 16 ? 1 : 0;
  }
  EXPECT_GT(narrow, 0u);
  EXPECT_GT(full, 0u);
  EXPECT_EQ(r.products_verified, r.completed);
  EXPECT_LT(r.max_error, 1e-9);
  EXPECT_EQ(r.fingerprint(), kServeBlockRoundsGolden);
}

// The full default job-driver suite (4 apps x 4 strategies x
// {controlled, volatile}): functional engines, real decodes, convergence
// trajectories — the deepest end-to-end path the repo has.
TEST(FingerprintGuard, JobSuite) {
  const harness::JobConfig base;  // workers 12, stragglers 3, seed 42
  const harness::JobGrid grid;
  const auto suite = harness::run_job_suite(base, grid, 0);
  EXPECT_EQ(suite.fingerprint(), kJobSuiteGolden);
}

}  // namespace
}  // namespace s2c2
