// Scenario driver over the harness (src/harness/matrix_runner.h) — the
// "kick the tires" tool a downstream user reaches for first. Runs either a
// single engine/workload/trace cell with a per-round table, or the widened
// cross-engine matrix, sharded over hardware threads.
//
//   build/examples/scenario_cli --engine s2c2 --workload logreg
//       --trace controlled --workers 12 --stragglers 3 --rounds 20
//   build/examples/scenario_cli --matrix --functional --jobs 0
//   build/examples/scenario_cli --matrix --jobs 4 --axis sizes=12,24,48
//       --axis predictors=oracle,last-value --axis engines=s2c2,replication
//       --axis traces=controlled,failure
//   build/examples/scenario_cli --serve --requests 128 --batch 16
//       --serve-json serve.json
//
// Flags (all optional):
//   --matrix         run the engine x workload x trace (x size x predictor)
//                    sweep on the parallel matrix runner
//   --large-scale    the thousand-worker sweep: MatrixAxes::large_scale()
//                    (n in {100, 250, 1000}, k/stragglers rescaled) —
//                    feasible because decode is cached + Schur-reduced,
//                    see docs/PERFORMANCE.md; combinable with --axis to
//                    narrow further (e.g. --axis sizes=250)
//   --robustness     the trace-zoo sweep: MatrixAxes::robustness()
//                    (fail-slow, bursty, diurnal, byzantine traces on the
//                    last-value predictor with health-informed prediction);
//                    combinable with --axis like --large-scale
//   --serve          coalesced serving cells (harness/serve.h) at
//                    n in {100, 250}: open-loop arrivals batched into
//                    multi-RHS block rounds; honors --engine/--trace/
//                    --chunks/--seed/--jobs/--functional
//   --requests N     serve mode: open-loop requests per cell (default 64)
//   --batch B        serve mode: coalescing cap max_batch (default 16)
//   --serve-json P   serve mode: also write the cells as JSON to path P
//   --jobs N         matrix worker threads (0 = all hardware threads,
//                    at most 1024; default 1 — results are
//                    byte-identical either way)
//   --inner-jobs N   intra-round parallelism inside each cell's engine:
//                    an MDS-family engine's per-chunk products fan out
//                    over an N-way engine pool when each is big enough to
//                    pay (0 = all hardware threads, at most 1024;
//                    default 1 = serial).
//                    Composes with --jobs and never changes a fingerprint
//   --axis K=V,V...  restrict/widen a matrix axis; repeatable. Axes:
//                      engines     s2c2|replication|poly|overdecomp|
//                                  s2c2-basic|mds|poly-conventional|lt|agc
//                      workloads   logreg|pagerank|svm|hessian
//                      traces      controlled|stable|volatile|failure|
//                                  fail-slow|bursty|diurnal|byzantine
//                      sizes       cluster sizes, e.g. 12,24,48
//                      predictors  oracle|last-value|arima|lstm
//   --engine X       single-cell engine                   (default s2c2)
//   --strategy X     alias for --engine
//   --workload X     single-cell workload                 (default logreg)
//   --trace X        single-cell trace profile            (default controlled)
//   --predictor X    speed source for capable engines     (default oracle)
//   --workers N      cluster size                         (default 12)
//   --k K            MDS parameter                        (default n-2)
//   --stragglers S   5x-slow nodes, controlled trace only (default 2)
//   --rounds R       iterations per cell                  (default 15)
//   --chunks C       chunks per partition                 (default 24)
//   --seed S         RNG seed for the whole scenario      (default 42)
//   --scale F        cost-only operator scale factor      (default 1.0)
//   --functional     run real (small) operators; coded cells (s2c2, poly on
//                    hessian) verify their decode and report the max error
//   --help           print the same flag/axis listing to stdout
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/harness/matrix_runner.h"
#include "src/harness/serve.h"
#include "src/util/parse.h"
#include "src/util/table.h"

namespace {

using namespace s2c2;

struct Options {
  harness::ScenarioConfig config;
  harness::MatrixAxes axes;
  harness::RunnerOptions runner;
  harness::StrategyKind engine = harness::StrategyKind::kS2C2;
  harness::WorkloadKind workload = harness::WorkloadKind::kLogisticRegression;
  harness::TraceProfile trace = harness::TraceProfile::kControlledStragglers;
  std::vector<std::string> axis_specs;  // applied after flag parsing
  bool large_scale = false;
  bool robustness = false;
  bool matrix = false;
  bool serve = false;
  std::size_t requests = 64;
  std::size_t batch = 16;
  std::string serve_json;
  bool help = false;
};

void print_usage() {
  std::cout <<
      "scenario_cli — per-round scenario cells and the cross-engine matrix\n"
      "\n"
      "  scenario_cli [--engine E --workload W --trace T]   one cell\n"
      "  scenario_cli --matrix [--jobs N] [--axis K=V,..]   widened sweep\n"
      "  scenario_cli --large-scale [--jobs N]              n=100/250/1000\n"
      "                                                     fleet sweep\n"
      "  scenario_cli --robustness [--jobs N]               fail-slow/bursty/\n"
      "                                                     diurnal/byzantine\n"
      "  scenario_cli --serve [--requests N --batch B       coalesced serving\n"
      "                        --serve-json PATH]           at n=100/250\n"
      "\n"
      "flags: --jobs N (0 = all hardware threads)  --workers N  --k K\n"
      "       --inner-jobs N (per-engine pool for large chunk products; 0 =\n"
      "                       all hardware threads, default 1 = serial; bitwise\n"
      "                       identical results at any --jobs x --inner-jobs)\n"
      "       --stragglers S  --rounds R  --chunks C  --seed S  --scale F\n"
      "       --predictor P  --functional  --help\n"
      "       (--strategy is an alias for --engine)\n"
      "axes (--axis name=v1,v2,... — repeatable):\n"
      "       engines     s2c2|replication|poly|overdecomp|\n"
      "                   s2c2-basic|mds|poly-conventional|lt|agc\n"
      "       workloads   logreg|pagerank|svm|hessian\n"
      "       traces      controlled|stable|volatile|failure|\n"
      "                   fail-slow|bursty|diurnal|byzantine\n"
      "       sizes       cluster sizes, e.g. 12,24,48\n"
      "       predictors  oracle|last-value|arima|lstm\n"
      "\n"
      "Job-level runs (full iterative applications + report generation)\n"
      "live in repro_cli; see README \"Job driver\" and docs/REPRODUCTION.md.\n";
}

harness::StrategyKind parse_engine(const std::string& s) {
  // One parser for every surface (core::parse_strategy); the matrix
  // additionally restricts to the kinds it can run as cells — the four
  // paper families plus the registry additions (extended_engines()).
  const auto e = core::parse_strategy(s);
  for (const auto allowed : harness::extended_engines()) {
    if (e == allowed) return e;
  }
  throw std::invalid_argument("strategy is not a matrix engine: " + s);
}

harness::WorkloadKind parse_workload(const std::string& s) {
  for (const auto w : harness::all_workloads()) {
    if (s == harness::workload_name(w)) return w;
  }
  throw std::invalid_argument("unknown workload: " + s);
}

harness::TraceProfile parse_trace(const std::string& s) {
  // Extended list: the original four plus the robustness zoo.
  for (const auto t : harness::extended_trace_profiles()) {
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

void apply_axis(harness::MatrixAxes& axes, const std::string& spec) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos) {
    throw std::invalid_argument("--axis expects name=v1,v2,... got: " + spec);
  }
  const std::string name = spec.substr(0, eq);
  const auto values = split_csv(spec.substr(eq + 1));
  if (name == "engines") {
    axes.engines.clear();
    for (const auto& v : values) axes.engines.push_back(parse_engine(v));
  } else if (name == "workloads") {
    axes.workloads.clear();
    for (const auto& v : values) axes.workloads.push_back(parse_workload(v));
  } else if (name == "traces") {
    axes.traces.clear();
    for (const auto& v : values) axes.traces.push_back(parse_trace(v));
  } else if (name == "sizes") {
    axes.cluster_sizes.clear();
    for (const auto& v : values) {
      axes.cluster_sizes.push_back(util::parse_unsigned(v, "--axis sizes"));
    }
  } else if (name == "predictors") {
    axes.predictors.clear();
    for (const auto& v : values) {
      axes.predictors.push_back(parse_predictor(v));
    }
  } else {
    throw std::invalid_argument("unknown axis: " + name);
  }
}

Options parse(int argc, char** argv) {
  Options o;
  o.config.rounds = 15;
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
    if (flag == "--help" || flag == "-h") o.help = true;
    else if (flag == "--matrix") o.matrix = true;
    else if (flag == "--large-scale") {
      o.matrix = true;
      o.large_scale = true;
    }
    else if (flag == "--robustness") {
      o.matrix = true;
      o.robustness = true;
    }
    else if (flag == "--serve") o.serve = true;
    else if (flag == "--requests") o.requests = count();
    else if (flag == "--batch") o.batch = count();
    else if (flag == "--serve-json") o.serve_json = value(i);
    else if (flag == "--jobs") o.runner.jobs = threads();
    else if (flag == "--inner-jobs") {
      const std::size_t n = threads();
      o.runner.inner_jobs = n;
      o.config.inner_jobs = n;  // single-cell and serve modes read config
    }
    else if (flag == "--axis") o.axis_specs.push_back(value(i));
    else if (flag == "--engine" || flag == "--strategy")
      o.engine = parse_engine(value(i));
    else if (flag == "--workload") o.workload = parse_workload(value(i));
    else if (flag == "--trace") o.trace = parse_trace(value(i));
    else if (flag == "--predictor")
      o.config.predictor = parse_predictor(value(i));
    else if (flag == "--workers") o.config.workers = count();
    else if (flag == "--k") o.config.k = count();
    else if (flag == "--stragglers") o.config.stragglers = count();
    else if (flag == "--rounds") o.config.rounds = count();
    else if (flag == "--chunks") o.config.chunks_per_partition = count();
    else if (flag == "--seed") o.config.seed = count();
    else if (flag == "--scale")
      o.config.scale = util::parse_double(value(i), flag);
    else if (flag == "--functional") o.config.functional = true;
    else throw std::invalid_argument("unknown flag: " + flag);
  }
  // Presets first, then --axis restrictions, so "--axis sizes=250
  // --large-scale" and "--large-scale --axis sizes=250" both narrow the
  // large-scale preset (flag order must not matter).
  if (o.large_scale && o.robustness) {
    throw std::invalid_argument(
        "--large-scale and --robustness are mutually exclusive presets");
  }
  if (o.large_scale) o.axes = harness::MatrixAxes::large_scale();
  if (o.robustness) o.axes = harness::MatrixAxes::robustness();
  for (const std::string& spec : o.axis_specs) apply_axis(o.axes, spec);
  return o;
}

void print_cell_summary(const harness::CellResult& cell) {
  std::cout << "\nmean latency " << util::fmt(cell.mean_latency * 1e3, 3)
            << " ms | timeout rate "
            << util::fmt(100.0 * cell.timeout_rate, 1)
            << "% | mean wasted work "
            << util::fmt(100.0 * cell.mean_wasted_fraction, 1) << "%";
  if (cell.decode_checked) {
    std::cout << " | max decode error " << util::fmt_sci(cell.max_decode_error);
  }
  std::cout << "\ncell fingerprint: " << cell.fingerprint() << "\n";
}

int run_single(const Options& o) {
  std::cout << core::strategy_name(o.engine) << " / "
            << harness::workload_name(o.workload) << " on "
            << harness::trace_profile_name(o.trace) << " traces, "
            << o.config.workers << " workers (k=" << o.config.effective_k()
            << "), " << harness::predictor_name(o.config.predictor)
            << " speeds, " << o.config.rounds << " rounds"
            << (o.config.functional ? ", functional" : ", cost-only")
            << "\n\n";
  const auto cell =
      harness::run_cell(o.config, o.engine, o.workload, o.trace);
  if (cell.failed) {
    std::cout << "cell failed: " << cell.error << "\n";
    std::cout << "cell fingerprint: " << cell.fingerprint() << "\n";
    return 0;
  }
  util::Table t({"round", "latency (ms)"});
  for (std::size_t r = 0; r < cell.round_latencies.size(); ++r) {
    t.add_row({std::to_string(r + 1),
               util::fmt(cell.round_latencies[r] * 1e3, 3)});
  }
  t.print();
  print_cell_summary(cell);
  return 0;
}

int run_matrix(const Options& o) {
  std::cout << "scenario matrix: base " << o.config.workers
            << " workers (k=" << o.config.effective_k() << "), "
            << o.config.rounds << " rounds/cell, seed " << o.config.seed
            << (o.config.functional ? ", functional" : ", cost-only")
            << ", jobs="
            << (o.runner.jobs == 0 ? std::string("auto")
                                   : std::to_string(o.runner.jobs))
            << "\n\n";
  const auto m = harness::run_matrix(o.config, o.axes, o.runner);
  std::vector<std::string> headers = {"engine", "workload", "trace", "n",
                                      "predictor", "mean latency (ms)",
                                      "timeout %", "wasted %"};
  if (o.config.functional) headers.push_back("max decode err");
  util::Table t(headers);
  for (const auto& cell : m.cells) {
    std::vector<std::string> row = {
        core::strategy_name(cell.engine),
        harness::workload_name(cell.workload),
        harness::trace_profile_name(cell.trace),
        std::to_string(cell.workers),
        harness::predictor_name(cell.predictor)};
    if (cell.failed) {
      row.insert(row.end(), {"failed", "-", "-"});
    } else {
      row.insert(row.end(),
                 {util::fmt(cell.mean_latency * 1e3, 3),
                  util::fmt(100.0 * cell.timeout_rate, 1),
                  util::fmt(100.0 * cell.mean_wasted_fraction, 1)});
    }
    if (o.config.functional) {
      row.push_back(cell.decode_checked && !cell.failed
                        ? util::fmt_sci(cell.max_decode_error)
                        : "-");
    }
    t.add_row(row);
  }
  t.print();
  std::size_t failed = 0;
  for (const auto& cell : m.cells) failed += cell.failed ? 1 : 0;
  if (failed > 0) {
    std::cout << "\n" << failed
              << " cell(s) recorded unrecoverable cluster failures "
                 "(deterministic; see the failure-injection profile)\n";
  }
  std::cout << "\nmatrix fingerprint: " << m.fingerprint() << "\n";
  return 0;
}

int run_serve_mode(const Options& o) {
  // Serving cells at the paper's fleet sizes for the chosen strategy plus
  // the MDS baseline (deduped when they coincide); one sweep, sharded
  // across --jobs threads with byte-identical results at any count.
  std::vector<harness::ServeConfig> cells;
  for (const std::size_t n : {std::size_t{100}, std::size_t{250}}) {
    std::vector<harness::StrategyKind> strategies = {o.engine};
    if (o.engine != harness::StrategyKind::kMds) {
      strategies.push_back(harness::StrategyKind::kMds);
    }
    for (const auto s : strategies) {
      harness::ServeConfig c;
      c.label = std::string(core::strategy_name(s)) + " n=" +
                std::to_string(n);
      c.strategy = s;
      c.trace = harness::TraceProfile::kStableCloud;
      c.workers = n;  // k defaults to n - 2 inside the serve layer
      c.stragglers = o.config.stragglers;
      c.chunks_per_partition = o.config.chunks_per_partition;
      c.requests = o.requests;
      c.load_factor = 16.0;
      c.max_batch = o.batch;
      c.functional = o.config.functional;
      c.seed = o.config.seed;
      c.inner_jobs = o.config.inner_jobs;
      if (!o.config.functional) {
        c.op_rows = 4 * n;
        c.op_cols = 48;
      }
      cells.push_back(c);
    }
  }
  std::cout << "coalesced serving: " << o.requests
            << " open-loop requests/cell, max_batch " << o.batch << ", seed "
            << o.config.seed
            << (o.config.functional ? ", functional" : ", cost-only")
            << ", jobs="
            << (o.runner.jobs == 0 ? std::string("auto")
                                   : std::to_string(o.runner.jobs))
            << "\n\n";
  const std::vector<harness::ServeResult> results =
      harness::run_serve_sweep(cells, o.runner.jobs);

  std::vector<std::string> headers = {"cell",    "rounds",  "jobs/s",
                                      "p50 lat", "p99 lat", "decode hit/miss",
                                      "fingerprint"};
  if (o.config.functional) {
    headers.insert(headers.end() - 1, "max err");
  }
  util::Table t(headers);
  for (const harness::ServeResult& r : results) {
    std::vector<std::string> row = {
        r.config.label,
        std::to_string(r.rounds),
        util::fmt(r.jobs_per_sec, 2),
        util::fmt(r.p50_latency, 3),
        util::fmt(r.p99_latency, 3),
        std::to_string(r.decode.hits) + "/" +
            std::to_string(r.decode.misses)};
    if (o.config.functional) row.push_back(util::fmt_sci(r.max_error));
    row.push_back(r.fingerprint());
    t.add_row(row);
  }
  t.print();

  if (!o.serve_json.empty()) {
    std::ofstream out(o.serve_json);
    out << "{\n  \"bench\": \"serve\",\n  \"unit\": \"jobs_per_sec\",\n"
        << "  \"cases\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const harness::ServeResult& r = results[i];
      out << "    {\"label\": \"" << r.config.label << "\", \"n\": "
          << r.config.workers << ", \"k\": " << r.config.effective_k()
          << ", \"requests\": " << r.config.requests
          << ", \"max_batch\": " << r.config.max_batch
          << ", \"rounds\": " << r.rounds
          << ", \"completed\": " << r.completed
          << ", \"jobs_per_sec\": " << r.jobs_per_sec
          << ", \"p50_latency\": " << r.p50_latency
          << ", \"p99_latency\": " << r.p99_latency
          << ", \"decode_hits\": " << r.decode.hits
          << ", \"decode_misses\": " << r.decode.misses
          << ", \"fingerprint\": \"" << r.fingerprint() << "\"}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "\nwrote " << o.serve_json << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n\n";
    print_usage();
    return 1;
  }
  if (o.help) {
    print_usage();
    return 0;
  }
  try {
    if (o.serve) return run_serve_mode(o);
    return o.matrix ? run_matrix(o) : run_single(o);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
