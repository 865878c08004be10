// Paper-style reproduction-report generation (the repo's publishing layer).
//
// Aggregates job-driver suites (src/harness/job_driver.h) and the
// predictor-sensitivity slice of the scenario matrix
// (src/harness/matrix_runner.h) into the artifacts a reader compares
// against the paper:
//   * job_completion.csv       — per-job completion times + normalization
//                                against S2C2 (Figs 6-8, 10 analogues);
//   * utilization.csv          — cumulative useful/wasted work breakdown
//                                (Figs 9, 11 analogue);
//   * predictor_sensitivity.csv — S2C2 latency/timeout behaviour per speed
//                                predictor (§6.1 lineup);
//   * REPRODUCTION.md          — generated report: figure-by-figure mapping
//                                table, the checked paper-claims table
//                                (src/report/claims.h), the tables above
//                                rendered as markdown, and the
//                                known-deviations list.
//
// Determinism contract: every builder below is a pure function of its
// inputs, numbers are formatted with fixed printf conversions in the C
// locale, and nothing environmental (timestamps, hostnames, paths) enters
// the output — so for one binary, regenerating at any --jobs thread count
// reproduces every artifact byte for byte (asserted in tests/report_test
// and the CI report job). Byte-identity across *different* binaries is not
// promised: libm differences legitimately move low-order bits.
#pragma once

#include <string>

#include "src/harness/job_driver.h"
#include "src/harness/matrix_runner.h"
#include "src/report/claims.h"

namespace s2c2::report {

/// Everything a report is built from; compute once, render many times.
struct ReportInputs {
  harness::JobSuiteResult suite;
  harness::MatrixResult predictor_matrix;
  /// The paper-claims rows (run_claims), filled by generate_report and
  /// `repro_cli --report`; empty renders as "not measured".
  std::vector<Claim> claims;
};

struct ReportConfig {
  /// Base job config for the suite sweep (seed, cluster, iteration caps).
  harness::JobConfig job_base;
  /// apps x strategies x traces grid; the default covers all four apps and
  /// all four strategies over all four trace profiles.
  harness::JobGrid grid;
  /// Rounds per cell of the predictor-sensitivity matrix slice.
  std::size_t predictor_rounds = 6;
  /// Thread-pool width for the sweeps and the claims (0 = hardware,
  /// 1 = serial).
  std::size_t jobs = 1;
  /// Output directory for generate_report (created if absent).
  std::string out_dir = "report";

  [[nodiscard]] static ReportConfig defaults();
};

/// Runs both sweeps (sharded over `config.jobs` threads); leaves `claims`
/// empty.
[[nodiscard]] ReportInputs run_report_inputs(const ReportConfig& config);

// ---- pure renderers (unit-testable without touching the filesystem) ----

[[nodiscard]] std::string job_completion_csv(
    const harness::JobSuiteResult& suite);
[[nodiscard]] std::string utilization_csv(
    const harness::JobSuiteResult& suite);
[[nodiscard]] std::string predictor_sensitivity_csv(
    const harness::MatrixResult& matrix);
/// Markdown table of every strategy constructible through
/// core::make_engine, one row per core::all_strategy_kinds() entry with
/// its capability predicates and harness-axis membership — generated, so
/// the docs can never drift from the enum. Embedded in
/// reproduction_markdown and published in docs/REPRODUCTION.md.
[[nodiscard]] std::string strategy_table_markdown();
[[nodiscard]] std::string reproduction_markdown(const ReportInputs& inputs);

struct ReportArtifacts {
  std::string job_completion_path;
  std::string utilization_path;
  std::string predictor_sensitivity_path;
  std::string reproduction_path;
  std::string suite_fingerprint;
  std::string matrix_fingerprint;
};

/// Runs the sweeps and the claims and writes all four artifacts under
/// config.out_dir.
[[nodiscard]] ReportArtifacts generate_report(const ReportConfig& config);

/// Writes the artifacts for already-computed inputs (lets callers reuse one
/// sweep across output directories, e.g. the CI determinism cross-check).
[[nodiscard]] ReportArtifacts write_report(const ReportInputs& inputs,
                                           const std::string& out_dir);

}  // namespace s2c2::report
