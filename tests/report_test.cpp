// Report-layer tests: the CSV/markdown renderers must be pure and
// deterministic (byte-identical regeneration at any thread count — the
// property the CI report job diffs for), shaped right, and normalized
// against the correct reference cells. Every paper-claims row must hold or
// cite a known deviation (ReportClaims measures the rows once for its
// cases); generate_report's two runs also pin the claims table
// byte-identical across thread counts.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "src/report/report.h"

namespace s2c2::report {
namespace {

/// Small but representative config: all four strategies on two apps and
/// two traces, short jobs, two-round predictor matrix.
ReportConfig small_config() {
  ReportConfig cfg = ReportConfig::defaults();
  cfg.job_base.max_iterations = 5;
  cfg.grid.apps = {harness::JobApp::kLogReg, harness::JobApp::kPageRank};
  cfg.grid.traces = {harness::TraceProfile::kControlledStragglers,
                     harness::TraceProfile::kVolatileCloud};
  cfg.predictor_rounds = 2;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t count_lines(const std::string& s) {
  std::size_t n = 0;
  for (const char c : s) n += c == '\n' ? 1 : 0;
  return n;
}

TEST(Report, ArtifactsByteIdenticalAtAnyThreadCount) {
  ReportConfig serial = small_config();
  serial.jobs = 1;
  ReportConfig parallel = small_config();
  parallel.jobs = 4;
  const ReportInputs a = run_report_inputs(serial);
  const ReportInputs b = run_report_inputs(parallel);
  EXPECT_EQ(a.suite.fingerprint(), b.suite.fingerprint());
  EXPECT_EQ(a.predictor_matrix.fingerprint(),
            b.predictor_matrix.fingerprint());
  EXPECT_EQ(job_completion_csv(a.suite), job_completion_csv(b.suite));
  EXPECT_EQ(utilization_csv(a.suite), utilization_csv(b.suite));
  EXPECT_EQ(predictor_sensitivity_csv(a.predictor_matrix),
            predictor_sensitivity_csv(b.predictor_matrix));
  EXPECT_EQ(reproduction_markdown(a), reproduction_markdown(b));
}

TEST(Report, JobCompletionCsvShape) {
  const ReportInputs inputs = run_report_inputs(small_config());
  const std::string csv = job_completion_csv(inputs.suite);
  // Header + one row per job (2 apps x 4 strategies x 2 traces).
  EXPECT_EQ(count_lines(csv), 1u + inputs.suite.jobs.size());
  EXPECT_EQ(csv.find("app,trace,strategy,"), 0u);
  // S2C2 rows normalize to exactly 1 against themselves.
  EXPECT_NE(csv.find("logreg,controlled,s2c2,oracle,0,"), std::string::npos);
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);  // header
  while (std::getline(lines, line)) {
    if (line.find(",s2c2,") == std::string::npos) continue;
    // normalized_vs_s2c2 is the 10th comma-separated field.
    std::istringstream fields(line);
    std::string field;
    for (int i = 0; i < 10; ++i) std::getline(fields, field, ',');
    EXPECT_EQ(field, "1") << line;
  }
}

TEST(Report, UtilizationCsvReflectsWasteOrdering) {
  const ReportInputs inputs = run_report_inputs(small_config());
  const harness::JobResult* s2c2 = inputs.suite.find(
      harness::JobApp::kLogReg, harness::StrategyKind::kS2C2,
      harness::TraceProfile::kControlledStragglers);
  const harness::JobResult* mds = inputs.suite.find(
      harness::JobApp::kLogReg, harness::StrategyKind::kMds,
      harness::TraceProfile::kControlledStragglers);
  ASSERT_NE(s2c2, nullptr);
  ASSERT_NE(mds, nullptr);
  // Conventional MDS cancels n - k workers per round; S2C2 uses everyone.
  EXPECT_LT(s2c2->total_wasted, mds->total_wasted);
  const std::string csv = utilization_csv(inputs.suite);
  EXPECT_EQ(count_lines(csv), 1u + inputs.suite.jobs.size());
  EXPECT_EQ(csv.find("app,trace,strategy,useful_work,wasted_work,"), 0u);
}

TEST(Report, PredictorCsvNormalizesAgainstOracle) {
  const ReportInputs inputs = run_report_inputs(small_config());
  const std::string csv = predictor_sensitivity_csv(inputs.predictor_matrix);
  EXPECT_EQ(csv.find("predictor,workload,trace,"), 0u);
  // Every oracle row's normalized column is exactly 1.
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);
  bool saw_oracle = false, saw_learned = false;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string predictor, skip, norm;
    std::getline(fields, predictor, ',');
    for (int i = 0; i < 3; ++i) std::getline(fields, skip, ',');
    std::getline(fields, norm, ',');
    if (predictor == "oracle") {
      saw_oracle = true;
      EXPECT_EQ(norm, "1") << line;
    } else {
      saw_learned = true;
      EXPECT_FALSE(norm.empty()) << line;
    }
  }
  EXPECT_TRUE(saw_oracle);
  EXPECT_TRUE(saw_learned);
}

TEST(Report, MarkdownCarriesFigureMappingAndDeviations) {
  const ReportInputs inputs = run_report_inputs(small_config());
  const std::string md = reproduction_markdown(inputs);
  // The documented paper anchors (ISSUE: §4.3 timeout, §7 Figs 7-10).
  for (const char* anchor :
       {"§4.3", "§6.1", "Figs 6–7", "Fig 8", "Figs 9/11", "Fig 10",
        "## Figure-by-figure mapping", "## Known deviations from the paper",
        "## Normalized job completion time",
        "## Compute-utilization / waste breakdown",
        "## Convergence integrity"}) {
    EXPECT_NE(md.find(anchor), std::string::npos) << anchor;
  }
  // Fingerprints are embedded so regenerated reports are self-checking.
  EXPECT_NE(md.find(inputs.suite.fingerprint()), std::string::npos);
  EXPECT_NE(md.find(inputs.predictor_matrix.fingerprint()),
            std::string::npos);
  // Every strategy column shows up in the tables.
  for (const auto s : harness::all_job_strategies()) {
    EXPECT_NE(md.find(core::strategy_name(s)), std::string::npos);
  }
}

TEST(Report, GenerateReportWritesByteIdenticalFiles) {
  const std::string dir_a = testing::TempDir() + "s2c2_report_a";
  const std::string dir_b = testing::TempDir() + "s2c2_report_b";
  ReportConfig cfg_a = small_config();
  cfg_a.out_dir = dir_a;
  cfg_a.jobs = 1;
  ReportConfig cfg_b = small_config();
  cfg_b.out_dir = dir_b;
  cfg_b.jobs = 3;
  const ReportArtifacts a = generate_report(cfg_a);
  const ReportArtifacts b = generate_report(cfg_b);
  EXPECT_EQ(a.suite_fingerprint, b.suite_fingerprint);
  EXPECT_EQ(slurp(a.job_completion_path), slurp(b.job_completion_path));
  EXPECT_EQ(slurp(a.utilization_path), slurp(b.utilization_path));
  EXPECT_EQ(slurp(a.predictor_sensitivity_path),
            slurp(b.predictor_sensitivity_path));
  EXPECT_EQ(slurp(a.reproduction_path), slurp(b.reproduction_path));
  EXPECT_NE(slurp(a.reproduction_path).find("| `fig08.mds-10-7` |"),
            std::string::npos);
  for (const std::string& p :
       {a.job_completion_path, a.utilization_path,
        a.predictor_sensitivity_path, a.reproduction_path,
        b.job_completion_path, b.utilization_path,
        b.predictor_sensitivity_path, b.reproduction_path}) {
    std::remove(p.c_str());
  }
}

/// Measures the claims table once per test binary.
class ReportClaims : public testing::Test {
 protected:
  static void SetUpTestSuite() { claims_ = run_claims(2); }
  static inline std::vector<Claim> claims_;
};

TEST_F(ReportClaims, EveryRowHoldsOrCitesAKnownDeviation) {
  for (const std::string& failure :
       claim_failures(claims_, known_deviations())) {
    ADD_FAILURE() << failure;
  }
  std::set<std::string> ids, anchors;
  for (const Claim& c : claims_) {
    EXPECT_TRUE(ids.insert(c.id).second) << c.id;
    anchors.insert(c.anchor);
  }
  for (const char* anchor : {"Fig 1", "Fig 2", "Fig 3", "Fig 6", "Fig 7",
                             "Fig 8", "Fig 9", "Fig 10", "Fig 11", "Fig 12",
                             "Fig 13", "§6.1"}) {
    EXPECT_EQ(anchors.count(anchor), 1u) << anchor;
  }
}

}  // namespace
}  // namespace s2c2::report
