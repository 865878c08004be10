#include "src/report/report.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "src/core/engine_factory.h"

namespace s2c2::report {

namespace {

using harness::JobApp;
using harness::JobResult;
using core::StrategyKind;
using harness::JobSuiteResult;
using harness::TraceProfile;

/// Deterministic number rendering for CSV/markdown: %.9g in the C locale
/// round-trips doubles closely enough for diffing while staying readable.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string fixed(double v, int precision) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// Appends parts one by one — no std::string operator+ chains, which trip
/// GCC 12's -Wrestrict false positive (PR 105651) under -O2 -Werror.
void append(std::string& out, std::initializer_list<std::string_view> parts) {
  for (const std::string_view p : parts) out += p;
}

/// First-seen-order unique axis values actually present in the suite —
/// renderers follow the data, not the full enum, so filtered grids render
/// without empty rows.
template <typename T, typename Get>
std::vector<T> distinct(const JobSuiteResult& suite, Get&& get) {
  std::vector<T> out;
  for (const JobResult& job : suite.jobs) {
    const T v = get(job);
    bool seen = false;
    for (const T u : out) seen = seen || u == v;
    if (!seen) out.push_back(v);
  }
  return out;
}

std::vector<TraceProfile> suite_traces(const JobSuiteResult& s) {
  return distinct<TraceProfile>(s, [](const JobResult& j) { return j.trace; });
}
std::vector<JobApp> suite_apps(const JobSuiteResult& s) {
  return distinct<JobApp>(s, [](const JobResult& j) { return j.app; });
}
std::vector<StrategyKind> suite_strategies(const JobSuiteResult& s) {
  return distinct<StrategyKind>(s, [](const JobResult& j) { return j.strategy; });
}

/// S2C2's completion time for the job's (app, trace) column, or 0 when
/// unavailable (not in the grid, or failed) — callers emit an empty cell.
double s2c2_reference_time(const JobSuiteResult& suite, const JobResult& job) {
  const JobResult* ref =
      suite.find(job.app, StrategyKind::kS2C2, job.trace);
  if (ref == nullptr || ref->failed || ref->completion_time <= 0.0) {
    return 0.0;
  }
  return ref->completion_time;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << content;
}

bool contains(const std::vector<StrategyKind>& v, StrategyKind s) {
  for (const StrategyKind k : v) {
    if (k == s) return true;
  }
  return false;
}

/// "default" when the kind is on the golden-pinned default axis,
/// "extended" when only the widened axis runs it, "-" when the surface
/// cannot run it at all.
std::string axis_membership(StrategyKind s,
                            const std::vector<StrategyKind>& defaults,
                            const std::vector<StrategyKind>& extended) {
  if (contains(defaults, s)) return "default";
  if (contains(extended, s)) return "extended";
  return "-";
}

}  // namespace

ReportConfig ReportConfig::defaults() {
  ReportConfig cfg;
  cfg.grid.traces = {TraceProfile::kControlledStragglers,
                     TraceProfile::kStableCloud, TraceProfile::kVolatileCloud,
                     TraceProfile::kFailureInjection};
  return cfg;
}

ReportInputs run_report_inputs(const ReportConfig& config) {
  ReportInputs inputs;
  inputs.suite =
      harness::run_job_suite(config.job_base, config.grid, config.jobs);

  // Predictor-sensitivity slice: the S2C2 engine over the mat-vec
  // workloads and both cloud regimes, cost-only at paper scale, once per
  // §6.1 predictor.
  harness::ScenarioConfig mcfg = config.job_base.scenario();
  mcfg.functional = false;
  mcfg.rounds = config.predictor_rounds;
  harness::MatrixAxes axes;
  axes.engines = {StrategyKind::kS2C2};
  axes.workloads = {harness::WorkloadKind::kLogisticRegression,
                    harness::WorkloadKind::kPageRank};
  axes.traces = {TraceProfile::kStableCloud, TraceProfile::kVolatileCloud};
  axes.predictors = harness::all_predictors();
  inputs.predictor_matrix =
      harness::run_matrix(mcfg, axes, {.jobs = config.jobs});
  return inputs;
}

std::string job_completion_csv(const JobSuiteResult& suite) {
  std::string csv =
      "app,trace,strategy,predictor,failed,converged,iterations,rounds,"
      "completion_time_s,normalized_vs_s2c2,timeout_rate,misprediction_rate,"
      "reassigned_chunks,data_moves,final_metric,solution_error,"
      "byzantine_detected,corrupted_chunks,degrading_workers,"
      "health_min_ttf\n";
  for (const JobResult& job : suite.jobs) {
    csv += harness::job_app_name(job.app);
    csv += ',';
    csv += harness::trace_profile_name(job.trace);
    csv += ',';
    csv += core::strategy_name(job.strategy);
    csv += ',';
    csv += harness::predictor_name(job.predictor);
    csv += ',';
    csv += job.failed ? "1" : "0";
    if (job.failed) {
      csv += ",,,,,,,,,,,,,,,\n";
      continue;
    }
    const double ref = s2c2_reference_time(suite, job);
    csv += ',';
    csv += job.converged ? "1" : "0";
    csv += ',' + std::to_string(job.iterations);
    csv += ',' + std::to_string(job.rounds);
    csv += ',' + num(job.completion_time);
    csv += ',';
    if (ref > 0.0) csv += num(job.completion_time / ref);
    csv += ',' + num(job.timeout_rate);
    csv += ',' + num(job.misprediction_rate);
    csv += ',' + std::to_string(job.reassigned_chunks);
    csv += ',' + std::to_string(job.data_moves);
    csv += ',' + num(job.final_metric);
    csv += ',' + num(job.solution_error);
    csv += ',' + std::to_string(job.byzantine_detected);
    csv += ',' + std::to_string(job.corrupted_chunks);
    csv += ',' + std::to_string(job.degrading_workers);
    // +inf renders as "inf" (nobody projected to fail); 0 = no monitor.
    csv += ',' + num(job.health_min_ttf);
    csv += '\n';
  }
  return csv;
}

std::string utilization_csv(const JobSuiteResult& suite) {
  std::string csv =
      "app,trace,strategy,useful_work,wasted_work,waste_pct,"
      "mean_wasted_fraction_pct,busy_time_s,reassigned_chunks,data_moves,"
      "byzantine_detected,corrupted_chunks\n";
  for (const JobResult& job : suite.jobs) {
    csv += harness::job_app_name(job.app);
    csv += ',';
    csv += harness::trace_profile_name(job.trace);
    csv += ',';
    csv += core::strategy_name(job.strategy);
    if (job.failed) {
      csv += ",,,,,,,,,\n";
      continue;
    }
    const double total = job.total_useful + job.total_wasted;
    csv += ',' + num(job.total_useful);
    csv += ',' + num(job.total_wasted);
    csv += ',' + num(total > 0.0 ? 100.0 * job.total_wasted / total : 0.0);
    csv += ',' + num(100.0 * job.mean_wasted_fraction);
    csv += ',' + num(job.total_busy);
    csv += ',' + std::to_string(job.reassigned_chunks);
    csv += ',' + std::to_string(job.data_moves);
    csv += ',' + std::to_string(job.byzantine_detected);
    csv += ',' + std::to_string(job.corrupted_chunks);
    csv += '\n';
  }
  return csv;
}

std::string predictor_sensitivity_csv(const harness::MatrixResult& matrix) {
  std::string csv =
      "predictor,workload,trace,mean_latency_ms,normalized_vs_oracle,"
      "timeout_pct,wasted_pct\n";
  for (const auto& cell : matrix.cells) {
    csv += harness::predictor_name(cell.predictor);
    csv += ',';
    csv += harness::workload_name(cell.workload);
    csv += ',';
    csv += harness::trace_profile_name(cell.trace);
    if (cell.failed) {
      csv += ",,,,\n";
      continue;
    }
    const auto* oracle =
        matrix.find(cell.engine, cell.workload, cell.trace, cell.workers,
                    harness::PredictorKind::kOracle);
    csv += ',' + num(cell.mean_latency * 1e3);
    csv += ',';
    if (oracle != nullptr && !oracle->failed && oracle->mean_latency > 0.0) {
      csv += num(cell.mean_latency / oracle->mean_latency);
    }
    csv += ',' + num(100.0 * cell.timeout_rate);
    csv += ',' + num(100.0 * cell.mean_wasted_fraction);
    csv += '\n';
  }
  return csv;
}

std::string strategy_table_markdown() {
  const auto mark = [](bool b) { return b ? "yes" : "no"; };
  const auto matrix_defaults = harness::all_engines();
  const auto matrix_extended = harness::extended_engines();
  const auto job_defaults = harness::all_job_strategies();
  const auto job_extended = harness::extended_job_strategies();
  std::string md;
  md +=
      "| strategy | coded | predictions | §4.3 recovery | block rounds | "
      "byzantine-tolerant | matrix axis | job axis |\n"
      "|---|---|---|---|---|---|---|---|\n";
  for (const StrategyKind s : core::registered_strategies()) {
    append(md, {"| `", core::strategy_name(s), "` | ",
                mark(core::strategy_is_coded(s)), " | ",
                mark(core::strategy_uses_predictions(s)), " | ",
                mark(core::strategy_uses_recovery(s)), " | ",
                mark(core::strategy_supports_block_rounds(s)), " | ",
                mark(core::strategy_tolerates_byzantine(s)), " | ",
                axis_membership(s, matrix_defaults, matrix_extended), " | ",
                axis_membership(s, job_defaults, job_extended), " |\n"});
  }
  return md;
}

std::string reproduction_markdown(const ReportInputs& inputs) {
  const JobSuiteResult& suite = inputs.suite;
  const harness::JobConfig& base = suite.base;
  const auto traces = suite_traces(suite);
  const auto apps = suite_apps(suite);
  const auto strategies = suite_strategies(suite);

  std::string md;
  md += "# S2C2 reproduction report\n\n";
  md +=
      "> Generated by `build/examples/repro_cli --report`. Do not edit by\n"
      "> hand — regenerate instead. For one binary the output is\n"
      "> byte-identical at any `--jobs` thread count; across compilers or\n"
      "> libm versions low-order digits may legitimately move.\n\n";

  md += "## Provenance\n\n";
  md += "- seed " + std::to_string(base.seed) + ", " +
        std::to_string(base.workers) + " workers (k=" +
        std::to_string(base.effective_k()) + "), " +
        std::to_string(base.chunks_per_partition) + " chunks/partition\n";
  md += "- iteration cap " + std::to_string(base.max_iterations) +
        ", tolerance " + num(base.tolerance) + ", predictor " +
        harness::predictor_name(base.predictor) + "\n";
  md += "- job suite: " + std::to_string(suite.jobs.size()) +
        " jobs, fingerprint `" + suite.fingerprint() + "`\n";
  md += "- predictor matrix: " +
        std::to_string(inputs.predictor_matrix.cells.size()) +
        " cells, fingerprint `" + inputs.predictor_matrix.fingerprint() +
        "`\n\n";

  md += "## Strategy registry\n\n";
  md +=
      "Generated from `core::registered_strategies()` and the capability "
      "predicates in `src/core/strategy_config.h` — one row per strategy "
      "constructible through `core::make_engine`. \"default\" axes are "
      "golden-pinned sweeps; \"extended\" kinds run via `--axis engines=`/"
      "`--strategy` (scenario matrix) or an explicit job grid.\n\n";
  md += strategy_table_markdown();
  md += "\n";

  md += "## Figure-by-figure mapping\n\n";
  md +=
      "The paper's numbers are the checked rows of the claims table below, "
      "measured at the paper's geometry. Where the job suite has an "
      "end-to-end analogue, it is listed here; Figs 1–3, 12–13 and the "
      "ablations have none.\n\n"
      "| Paper anchor | What it shows | Claims | Job-suite analogue |\n"
      "|---|---|---|---|\n"
      "| §4.3 (timeout + reassignment) | recovery under mispredictions and "
      "failures | `abl.timeout-*` | `job_completion.csv` columns "
      "`timeout_rate`, `reassigned_chunks`; rows with trace `failure` |\n"
      "| §6.1 (predictor lineup) | prediction error; latency cost of each "
      "speed predictor vs the oracle | `pred.*` | "
      "`predictor_sensitivity.csv` column `normalized_vs_oracle` |\n"
      "| §6.5/§7.1, Figs 6–7 (controlled cluster) | normalized time, S2C2 "
      "vs baselines, fixed 5x stragglers | `fig06.*`, `fig07.*` | "
      "`job_completion.csv` column `normalized_vs_s2c2`, trace `controlled` "
      "|\n"
      "| §7.2, Fig 8 (low-volatility cloud) | normalized time under stable "
      "cloud traces | `fig08.*` | `job_completion.csv`, trace `stable` |\n"
      "| §7.2, Figs 9/11 (compute waste) | useful vs wasted work per "
      "strategy | `fig09.*`, `fig11.*` | `utilization.csv` column "
      "`waste_pct` |\n"
      "| §7.2, Fig 10 (high-volatility cloud) | normalized time under "
      "volatile cloud traces | `fig10.*` | `job_completion.csv`, trace "
      "`volatile` |\n\n";

  md += "## Paper claims\n\n";
  if (inputs.claims.empty()) {
    md += "Not measured in this run.\n\n";
  } else {
    md += claims_markdown(inputs.claims, known_deviations());
    md += "\n";
  }

  md += "## Normalized job completion time (Figs 6–8, 10 analogue)\n\n";
  md +=
      "Each cell is the strategy's job completion time divided by S2C2's "
      "on the same (application, trace) column — the same clusters, traces, "
      "and operators, so > 1.00 means S2C2 finishes the whole iterative job "
      "that factor faster. Absolute seconds in `job_completion.csv`.\n";
  for (const TraceProfile t : traces) {
    append(md, {"\n### Trace `", harness::trace_profile_name(t),
                "`\n\n| app |"});
    for (const StrategyKind s : strategies) {
      append(md, {" ", core::strategy_name(s), " |"});
    }
    md += "\n|---|";
    for (std::size_t i = 0; i < strategies.size(); ++i) md += "---|";
    md += "\n";
    for (const JobApp a : apps) {
      append(md, {"| ", harness::job_app_name(a), " |"});
      for (const StrategyKind s : strategies) {
        const JobResult* job = suite.find(a, s, t);
        if (job == nullptr) {
          md += " - |";
        } else if (job->failed) {
          md += " failed |";
        } else {
          const double ref = s2c2_reference_time(suite, *job);
          if (ref > 0.0) {
            append(md, {" ", fixed(job->completion_time / ref, 2), "x |"});
          } else {
            append(md, {" ", num(job->completion_time), " s |"});
          }
        }
      }
      md += "\n";
    }
  }

  md += "\n## Compute-utilization / waste breakdown (Figs 9, 11 analogue)\n\n";
  md +=
      "Percentage of the cluster's executed work the master discarded "
      "(cancelled stragglers, losing speculative copies, recovery "
      "casualties). Absolute work units in `utilization.csv`.\n";
  for (const TraceProfile t : traces) {
    append(md, {"\n### Trace `", harness::trace_profile_name(t),
                "`\n\n| app |"});
    for (const StrategyKind s : strategies) {
      append(md, {" ", core::strategy_name(s), " |"});
    }
    md += "\n|---|";
    for (std::size_t i = 0; i < strategies.size(); ++i) md += "---|";
    md += "\n";
    for (const JobApp a : apps) {
      append(md, {"| ", harness::job_app_name(a), " |"});
      for (const StrategyKind s : strategies) {
        const JobResult* job = suite.find(a, s, t);
        if (job == nullptr) {
          md += " - |";
        } else if (job->failed) {
          md += " failed |";
        } else {
          const double total = job->total_useful + job->total_wasted;
          append(md, {" ",
                      fixed(total > 0.0 ? 100.0 * job->total_wasted / total
                                        : 0.0,
                            1),
                      "% |"});
        }
      }
      md += "\n";
    }
  }

  md += "\n## Predictor sensitivity (§6.1)\n\n";
  md +=
      "| predictor | workload | trace | mean latency (ms) | vs oracle | "
      "timeout % |\n|---|---|---|---|---|---|\n";
  for (const auto& cell : inputs.predictor_matrix.cells) {
    md += "| " + std::string(harness::predictor_name(cell.predictor)) +
          " | " + harness::workload_name(cell.workload) + " | " +
          harness::trace_profile_name(cell.trace) + " | ";
    if (cell.failed) {
      md += "failed | - | - |\n";
      continue;
    }
    const auto* oracle = inputs.predictor_matrix.find(
        cell.engine, cell.workload, cell.trace, cell.workers,
        harness::PredictorKind::kOracle);
    md += fixed(cell.mean_latency * 1e3, 3) + " | ";
    md += (oracle != nullptr && !oracle->failed && oracle->mean_latency > 0.0)
              ? fixed(cell.mean_latency / oracle->mean_latency, 3) + "x"
              : "-";
    md += " | " + fixed(100.0 * cell.timeout_rate, 1) + " |\n";
  }

  md += "\n## Convergence integrity\n\n";
  md +=
      "Max deviation of each strategy's iterate trajectory from the "
      "uncoded reference run in lockstep — decode-level floating-point "
      "noise for the coded strategies, exact zero for the uncoded "
      "baselines. A large value would mean a strategy changed the math, "
      "not just the schedule.\n\n";
  md += "| app | trace | strategy | iterations | converged | "
        "solution error |\n|---|---|---|---|---|---|\n";
  for (const JobResult& job : suite.jobs) {
    md += "| " + std::string(harness::job_app_name(job.app)) + " | " +
          harness::trace_profile_name(job.trace) + " | " +
          core::strategy_name(job.strategy) + " | ";
    if (job.failed) {
      md += "failed | - | - |\n";
      continue;
    }
    md += std::to_string(job.iterations);
    md += std::string(" | ") + (job.converged ? "yes" : "cap") + " | " +
          num(job.solution_error) + " |\n";
  }

  md += "\n## Known deviations from the paper\n\n";
  md += deviations_markdown(known_deviations());
  return md;
}

ReportArtifacts write_report(const ReportInputs& inputs,
                             const std::string& out_dir) {
  std::filesystem::create_directories(out_dir);
  ReportArtifacts art;
  art.suite_fingerprint = inputs.suite.fingerprint();
  art.matrix_fingerprint = inputs.predictor_matrix.fingerprint();
  art.job_completion_path = out_dir + "/job_completion.csv";
  art.utilization_path = out_dir + "/utilization.csv";
  art.predictor_sensitivity_path = out_dir + "/predictor_sensitivity.csv";
  art.reproduction_path = out_dir + "/REPRODUCTION.md";
  write_file(art.job_completion_path, job_completion_csv(inputs.suite));
  write_file(art.utilization_path, utilization_csv(inputs.suite));
  write_file(art.predictor_sensitivity_path,
             predictor_sensitivity_csv(inputs.predictor_matrix));
  write_file(art.reproduction_path, reproduction_markdown(inputs));
  return art;
}

ReportArtifacts generate_report(const ReportConfig& config) {
  ReportInputs inputs = run_report_inputs(config);
  inputs.claims = run_claims(config.jobs);
  return write_report(inputs, config.out_dir);
}

}  // namespace s2c2::report
