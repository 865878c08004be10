// Reproduction driver: runs full iterative jobs (logreg / SVM to
// convergence, PageRank / graph filter to fixed point) through every
// straggler-mitigation strategy and emits the paper-style report artifacts
// (CSV tables + REPRODUCTION.md with the figure-by-figure mapping).
//
//   build/examples/repro_cli                       # job table to stdout
//   build/examples/repro_cli --report --jobs 0     # write report/ artifacts
//   build/examples/repro_cli --app pagerank --strategy mds --trace volatile
//
// Flags (all optional):
//   --report         run both sweeps and the paper-claims table, write
//                    CSVs + REPRODUCTION.md; exits 1 (after writing) when
//                    a claim neither holds nor cites a known deviation
//   --out DIR        report output directory            (default report)
//   --jobs N         suite and claims worker threads (0 = all hardware
//                    threads, at most 1024; default 1 — artifacts are
//                    byte-identical either way)
//   --inner-jobs N   intra-round parallelism inside each job's engines
//                    (large per-chunk products of the MDS-family engines;
//                    0 = all hardware threads, at most 1024, default
//                    1 = serial).
//                    Composes with --jobs and never changes a fingerprint
//   --app X          single job: logreg|svm|pagerank|graphfilter
//   --strategy X     single job: s2c2|mds|replication|overdecomp|lt|agc
//   --trace X        single-job trace profile:
//                    controlled|stable|volatile|failure (suite: --traces)
//   --apps V,V...    restrict the suite's application axis
//   --strategies V.. restrict the suite's strategy axis
//   --traces V,V...  restrict the suite's trace axis
//   --predictor X    speed source for s2c2/overdecomp   (default oracle)
//   --workers N      cluster size                       (default 12)
//   --k K            MDS parameter                      (default n-2)
//   --stragglers S   slow/dying nodes where applicable  (default 3)
//   --iterations N   per-job iteration cap              (default 25)
//   --tolerance T    per-app convergence tolerance      (default 1e-4)
//   --chunks C       chunks per partition               (default 24)
//   --seed S         RNG seed for the whole run         (default 42)
//   --help           this listing
//
// Without --report (and without --app/--strategy) the suite runs and
// prints its job-completion table; with --app/--strategy a single job runs
// with its convergence curve. Everything is deterministic in --seed; see
// docs/REPRODUCTION.md for the artifact the default config generates.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/report/report.h"
#include "src/util/parse.h"
#include "src/util/table.h"

namespace {

using namespace s2c2;

struct Options {
  report::ReportConfig report = report::ReportConfig::defaults();
  bool write_report = false;
  bool single = false;
  bool help = false;
};

harness::JobApp parse_app(const std::string& s) {
  for (const auto a : harness::all_job_apps()) {
    if (s == harness::job_app_name(a)) return a;
  }
  throw std::invalid_argument("unknown app: " + s);
}

harness::StrategyKind parse_strategy(const std::string& s) {
  // One parser for every surface (core::parse_strategy); the job driver
  // additionally restricts to the strategies it can run — the four
  // frozen suite families plus the registry extensions (lt, agc).
  const auto st = core::parse_strategy(s);
  for (const auto allowed : harness::extended_job_strategies()) {
    if (st == allowed) return st;
  }
  throw std::invalid_argument("strategy is not a job-driver strategy: " + s);
}

harness::TraceProfile parse_trace(const std::string& s) {
  for (const auto t : harness::all_trace_profiles()) {
    if (s == harness::trace_profile_name(t)) return t;
  }
  throw std::invalid_argument("unknown trace profile: " + s);
}

harness::PredictorKind parse_predictor(const std::string& s) {
  for (const auto p : harness::all_predictors()) {
    if (s == harness::predictor_name(p)) return p;
  }
  throw std::invalid_argument("unknown predictor: " + s);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  if (out.empty()) throw std::invalid_argument("empty axis value list");
  return out;
}

void print_usage() {
  std::cout <<
      "repro_cli — job-level reproduction driver + report generator\n\n"
      "  repro_cli                      run the suite, print the job table\n"
      "  repro_cli --report [--out D]   write CSVs + REPRODUCTION.md\n"
      "  repro_cli --app A --strategy S --trace T   run one job\n\n"
      "flags: --jobs N  --inner-jobs N (pool for large chunk products)\n"
      "       --apps v,..  --strategies v,..  --traces v,..\n"
      "       --predictor P  --workers N  --k K  --stragglers S\n"
      "       --iterations N  --tolerance T  --chunks C  --seed S\n"
      "axes:  apps       logreg|svm|pagerank|graphfilter\n"
      "       strategies s2c2|mds|replication|overdecomp|lt|agc\n"
      "       traces     controlled|stable|volatile|failure\n"
      "       predictors oracle|last-value|arima|lstm\n";
}

Options parse(int argc, char** argv) {
  Options o;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw std::invalid_argument("missing flag value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    // Strict numeric values (src/util/parse.h); thread counts are capped.
    auto count = [&] { return util::parse_unsigned(value(i), flag); };
    auto threads = [&] {
      return util::parse_unsigned(value(i), flag, util::kMaxThreadsFlag);
    };
    if (flag == "--report") o.write_report = true;
    else if (flag == "--help" || flag == "-h") o.help = true;
    else if (flag == "--out") o.report.out_dir = value(i);
    else if (flag == "--jobs") o.report.jobs = threads();
    else if (flag == "--inner-jobs") o.report.job_base.inner_jobs = threads();
    else if (flag == "--app") {
      o.report.job_base.app = parse_app(value(i));
      o.single = true;
    } else if (flag == "--strategy") {
      o.report.job_base.strategy = parse_strategy(value(i));
      o.single = true;
    } else if (flag == "--trace") {
      // Sets the single-job trace but does not by itself select single-job
      // mode (the suite's trace axis is --traces); --app/--strategy do.
      o.report.job_base.trace = parse_trace(value(i));
    } else if (flag == "--apps") {
      o.report.grid.apps.clear();
      for (const auto& v : split_csv(value(i))) {
        o.report.grid.apps.push_back(parse_app(v));
      }
    } else if (flag == "--strategies") {
      o.report.grid.strategies.clear();
      for (const auto& v : split_csv(value(i))) {
        o.report.grid.strategies.push_back(parse_strategy(v));
      }
    } else if (flag == "--traces") {
      o.report.grid.traces.clear();
      for (const auto& v : split_csv(value(i))) {
        o.report.grid.traces.push_back(parse_trace(v));
      }
    } else if (flag == "--predictor") {
      o.report.job_base.predictor = parse_predictor(value(i));
    } else if (flag == "--workers") {
      o.report.job_base.workers = count();
    } else if (flag == "--k") {
      o.report.job_base.k = count();
    } else if (flag == "--stragglers") {
      o.report.job_base.stragglers = count();
    } else if (flag == "--iterations") {
      o.report.job_base.max_iterations = count();
    } else if (flag == "--tolerance") {
      o.report.job_base.tolerance = util::parse_double(value(i), flag);
    } else if (flag == "--chunks") {
      o.report.job_base.chunks_per_partition = count();
    } else if (flag == "--seed") {
      o.report.job_base.seed = count();
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  return o;
}

int run_single(const Options& o) {
  const harness::JobConfig& cfg = o.report.job_base;
  std::cout << harness::job_app_name(cfg.app) << " via "
            << core::strategy_name(cfg.strategy) << " on "
            << harness::trace_profile_name(cfg.trace) << " traces, "
            << cfg.workers << " workers (k=" << cfg.effective_k() << "), "
            << harness::predictor_name(cfg.predictor)
            << " speeds, cap " << cfg.max_iterations << " iterations\n\n";
  const harness::JobResult job = harness::run_job(cfg);
  if (job.failed) {
    std::cout << "job failed: " << job.error << "\n";
    std::cout << "job fingerprint: " << job.fingerprint() << "\n";
    return 0;
  }
  util::Table t({"iteration", "convergence metric"});
  for (std::size_t i = 0; i < job.convergence.size(); ++i) {
    t.add_row({std::to_string(i + 1), util::fmt_sci(job.convergence[i])});
  }
  t.print();
  std::cout << "\n" << (job.converged ? "converged" : "hit iteration cap")
            << " after " << job.iterations << " iterations ("
            << job.rounds << " coded rounds) | completion "
            << util::fmt(job.completion_time * 1e3, 3) << " ms | timeouts "
            << util::fmt(100.0 * job.timeout_rate, 1) << "% | waste "
            << util::fmt(100.0 * job.mean_wasted_fraction, 1)
            << "% | solution error " << util::fmt_sci(job.solution_error) << "\n";
  std::cout << "job fingerprint: " << job.fingerprint() << "\n";
  return 0;
}

void print_suite(const harness::JobSuiteResult& suite) {
  util::Table t({"app", "trace", "strategy", "iters", "converged",
                 "completion (ms)", "vs s2c2", "timeout %", "waste %"});
  for (const auto& job : suite.jobs) {
    std::vector<std::string> row = {harness::job_app_name(job.app),
                                    harness::trace_profile_name(job.trace),
                                    core::strategy_name(job.strategy)};
    if (job.failed) {
      row.insert(row.end(), {"-", "failed", "-", "-", "-", "-"});
    } else {
      const auto* ref = suite.find(job.app, harness::StrategyKind::kS2C2,
                                   job.trace);
      const bool has_ref =
          ref != nullptr && !ref->failed && ref->completion_time > 0.0;
      row.insert(row.end(),
                 {std::to_string(job.iterations),
                  job.converged ? "yes" : "cap",
                  util::fmt(job.completion_time * 1e3, 3),
                  has_ref ? util::fmt(job.completion_time /
                                          ref->completion_time, 2) + "x"
                          : "-",
                  util::fmt(100.0 * job.timeout_rate, 1),
                  util::fmt(100.0 * job.mean_wasted_fraction, 1)});
    }
    t.add_row(row);
  }
  t.print();
  std::cout << "\nsuite fingerprint: " << suite.fingerprint() << "\n";
}

int run_report(const Options& o) {
  std::cout << "generating reproduction report into " << o.report.out_dir
            << "/ (jobs="
            << (o.report.jobs == 0 ? std::string("auto")
                                   : std::to_string(o.report.jobs))
            << ", seed " << o.report.job_base.seed << ")...\n";
  report::ReportInputs inputs = report::run_report_inputs(o.report);
  inputs.claims = report::run_claims(o.report.jobs);
  const report::ReportArtifacts art =
      report::write_report(inputs, o.report.out_dir);
  print_suite(inputs.suite);
  std::cout << "\nwrote:\n  " << art.job_completion_path << "\n  "
            << art.utilization_path << "\n  "
            << art.predictor_sensitivity_path << "\n  "
            << art.reproduction_path << "\n";
  std::cout << "suite fingerprint: " << art.suite_fingerprint
            << "\npredictor matrix fingerprint: " << art.matrix_fingerprint
            << "\n";
  // The artifacts are written first, so a failing claim can be read in
  // REPRODUCTION.md.
  const auto failures =
      report::claim_failures(inputs.claims, report::known_deviations());
  std::cout << "paper claims: " << inputs.claims.size() << " rows, "
            << failures.size() << " failing\n";
  if (failures.empty()) return 0;
  std::cerr << "error: " << failures.size()
            << " paper claim(s) neither hold nor cite a known deviation:\n";
  for (const std::string& f : failures) std::cerr << "  " << f << "\n";
  return 1;
}

int run_suite(const Options& o) {
  std::cout << "job suite: " << o.report.job_base.workers << " workers (k="
            << o.report.job_base.effective_k() << "), cap "
            << o.report.job_base.max_iterations << " iterations, seed "
            << o.report.job_base.seed << ", jobs="
            << (o.report.jobs == 0 ? std::string("auto")
                                   : std::to_string(o.report.jobs))
            << "\n\n";
  const auto suite = harness::run_job_suite(o.report.job_base, o.report.grid,
                                            o.report.jobs);
  print_suite(suite);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    print_usage();
    return 1;
  }
  if (o.help) {
    print_usage();
    return 0;
  }
  if (o.write_report && o.single) {
    // The report sweeps its grid, overriding the single-job app/strategy;
    // silently ignoring the flags would mislead — reject instead.
    std::cerr << "error: --app/--strategy select a single job and have no "
                 "effect with --report; narrow the report with "
                 "--apps/--strategies/--traces instead\n";
    return 1;
  }
  try {
    if (o.write_report) return run_report(o);
    return o.single ? run_single(o) : run_suite(o);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
