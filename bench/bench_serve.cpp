// Serving benchmark: coalesced multi-RHS block rounds (harness/serve.h)
// under open-loop Poisson arrivals, at the paper's fleet sizes.
//
// Two measurements:
//   1. Throughput cells at n in {100, 250, 1000}: jobs/sec and p50/p99
//      request latency when up to 16 concurrent requests coalesce into one
//      coded block round (cost-only rounds at fleet scale). The cells also
//      re-run through run_serve_sweep at a different thread count and the
//      fingerprints are required to match byte-for-byte — the --jobs
//      determinism contract, checked in the artifact itself. The n = 1000
//      cells run with inner_jobs = 4 (cost-only rounds compute no chunk
//      products, so the engine's inner pool stays idle) and are
//      additionally re-run at inner_jobs = 1 with the same bar: the inner
//      axis must be fingerprint-invisible.
//   2. The amortization cell at k = 40: per-request decode flops for
//      coalesced serving vs the cold one-job-per-request path (a fresh
//      engine + decoder per request — what exists without the serving
//      layer). Only the per-responder-set factorization amortizes (solve
//      flops are exactly linear in batch width), so the geometry keeps
//      the Schur factor dominant: one row per partition and k well below
//      n. Acceptance bar: batched decode >= 3x cheaper per request.
//
// Emits a JSON snapshot (default: BENCH_serve.json — CI uploads it beside
// BENCH_decode.json; a reference copy is checked in at
// bench/baselines/BENCH_serve.json) and exits nonzero if the amortization
// ratio at k >= 40 falls below 3x, coalesced rounds never hit the
// DecodeContext cache, or any sweep fingerprint changes with --jobs.
//
// Usage: bench_serve [requests=64] [json_path=BENCH_serve.json] [jobs=0]
#include <cstddef>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/engine_factory.h"
#include "src/harness/serve.h"
#include "src/util/table.h"

namespace {

using namespace s2c2;
using harness::ServeConfig;
using harness::ServeResult;

ServeConfig throughput_cell(core::StrategyKind strategy, std::size_t workers,
                            std::size_t requests,
                            std::size_t inner_jobs = 1) {
  ServeConfig c;
  c.label = std::string(core::strategy_name(strategy)) + " n=" +
            std::to_string(workers);
  c.strategy = strategy;
  c.trace = harness::TraceProfile::kStableCloud;
  c.workers = workers;          // k defaults to n - 2
  c.requests = requests;
  c.tenants = 8;
  c.load_factor = 16.0;         // deep queues: coalescing saturates
  c.max_batch = 16;
  c.functional = false;         // cost-only rounds at fleet scale
  c.op_rows = 4 * workers;
  c.op_cols = 48;
  c.seed = 42;
  c.inner_jobs = inner_jobs;
  return c;
}

/// The amortization cell: factorization-dominant geometry (one row per
/// partition so each request contributes a single solve column; k << n so
/// the cached Schur factor is O(p^3) with large p).
ServeConfig amortization_cell(std::size_t requests) {
  ServeConfig c;
  c.label = "amortization k=40";
  c.strategy = core::StrategyKind::kS2C2;
  c.trace = harness::TraceProfile::kVolatileCloud;
  c.workers = 100;
  c.k = 40;
  c.chunks_per_partition = 1;
  c.requests = requests;
  c.tenants = 8;
  c.load_factor = 16.0;
  c.max_batch = 16;
  c.functional = false;
  c.op_rows = 40;
  c.op_cols = 24;
  c.seed = 42;
  return c;
}

double per_request_decode_flops(const ServeResult& r) {
  return r.completed == 0 ? 0.0
                          : (r.decode.factor_flops + r.decode.solve_flops) /
                                static_cast<double>(r.completed);
}

void write_json(const std::string& path, const std::vector<ServeResult>& cells,
                double cold_per_req, double batched_per_req, double ratio) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"serve\",\n  \"unit\": \"jobs_per_sec\",\n"
      << "  \"cases\": [\n";
  for (const ServeResult& r : cells) {
    out << "    {\"label\": \"" << r.config.label << "\", \"n\": "
        << r.config.workers << ", \"k\": " << r.config.effective_k()
        << ", \"requests\": " << r.config.requests
        << ", \"max_batch\": " << r.config.max_batch
        << ", \"inner_jobs\": " << r.config.inner_jobs
        << ", \"rounds\": " << r.rounds
        << ", \"completed\": " << r.completed
        << ", \"jobs_per_sec\": " << r.jobs_per_sec
        << ", \"p50_latency\": " << r.p50_latency
        << ", \"p99_latency\": " << r.p99_latency
        << ", \"decode_hits\": " << r.decode.hits
        << ", \"decode_misses\": " << r.decode.misses
        << ", \"fingerprint\": \"" << r.fingerprint() << "\"},\n";
  }
  out << "    {\"label\": \"amortization k=40\", "
      << "\"cold_decode_flops_per_request\": " << cold_per_req
      << ", \"batched_decode_flops_per_request\": " << batched_per_req
      << ", \"amortization_ratio\": " << ratio << "}\n";
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t requests = argc > 1 ? std::stoul(argv[1]) : 64;
  const std::string json_path = argc > 2 ? argv[2] : "BENCH_serve.json";
  const std::size_t jobs = argc > 3 ? std::stoul(argv[3]) : 0;

  std::cout << "Coalesced serving — open-loop arrivals through multi-RHS "
               "block rounds\n"
            << requests << " requests per cell, max_batch 16, load factor "
               "16 (queues build, batches saturate).\n\n";

  // ---- throughput cells -----------------------------------------------
  std::vector<ServeConfig> cells;
  for (const std::size_t n :
       {std::size_t{100}, std::size_t{250}, std::size_t{1000}}) {
    // The n = 1000 cells exercise the intra-round pool; smaller fleets
    // stay on the serial allocation-free path.
    const std::size_t inner = n == 1000 ? 4 : 1;
    cells.push_back(
        throughput_cell(core::StrategyKind::kS2C2, n, requests, inner));
    cells.push_back(
        throughput_cell(core::StrategyKind::kMds, n, requests, inner));
  }
  const std::vector<ServeResult> results =
      harness::run_serve_sweep(cells, jobs);
  // Determinism self-check: the same cells sharded serially must produce
  // the same bits.
  const std::vector<ServeResult> serial = harness::run_serve_sweep(cells, 1);
  // Inner-axis self-check: the inner_jobs > 1 cells re-run serial-inner.
  std::vector<ServeConfig> inner_serial_cells;
  for (ServeConfig c : cells) {
    if (c.inner_jobs <= 1) continue;
    c.inner_jobs = 1;
    inner_serial_cells.push_back(std::move(c));
  }
  const std::vector<ServeResult> inner_serial =
      harness::run_serve_sweep(inner_serial_cells, 1);

  util::Table t({"cell", "inner", "rounds", "jobs/s", "p50 lat", "p99 lat",
                 "decode hit/miss"});
  for (const ServeResult& r : results) {
    t.add_row({r.config.label, std::to_string(r.config.inner_jobs),
               std::to_string(r.rounds), util::fmt(r.jobs_per_sec, 2),
               util::fmt(r.p50_latency, 3), util::fmt(r.p99_latency, 3),
               std::to_string(r.decode.hits) + "/" +
                   std::to_string(r.decode.misses)});
  }
  t.print();

  // ---- amortization cell ----------------------------------------------
  const ServeResult batched = harness::run_serve(amortization_cell(requests));
  // Cold baseline: one request per serve run, fresh engine each time —
  // every request pays its own factorization. Averaged over seeds so one
  // lucky responder set cannot skew the bar.
  const std::size_t kColdRuns = 8;
  double cold_total = 0.0;
  std::size_t cold_completed = 0;
  for (std::size_t i = 0; i < kColdRuns; ++i) {
    ServeConfig cold = amortization_cell(1);
    cold.max_batch = 1;
    cold.seed = 42 + i;
    cold.arrival_rate = batched.realized_rate;  // skip the probe round
    const ServeResult r = harness::run_serve(cold);
    cold_total += r.decode.factor_flops + r.decode.solve_flops;
    cold_completed += r.completed;
  }
  const double cold_per_req =
      cold_completed == 0 ? 0.0
                          : cold_total / static_cast<double>(cold_completed);
  const double batched_per_req = per_request_decode_flops(batched);
  const double ratio =
      batched_per_req > 0.0 ? cold_per_req / batched_per_req : 0.0;

  std::cout << "\namortization @ n=100 k=40: cold "
            << util::fmt(cold_per_req, 0) << " decode flops/request, batched "
            << util::fmt(batched_per_req, 0) << " -> " << util::fmt(ratio, 2)
            << "x cheaper (bar: >= 3x)\n";

  write_json(json_path, results, cold_per_req, batched_per_req, ratio);
  std::cout << "wrote " << json_path << "\n";

  // ---- acceptance bars -------------------------------------------------
  bool ok = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].fingerprint() != serial[i].fingerprint()) {
      std::cout << "FAIL: cell '" << results[i].config.label
                << "' fingerprint differs between --jobs shardings\n";
      ok = false;
    }
    if (results[i].completed != results[i].config.requests) {
      std::cout << "FAIL: cell '" << results[i].config.label << "' completed "
                << results[i].completed << "/" << results[i].config.requests
                << " requests\n";
      ok = false;
    }
  }
  // Inner-axis invariance: an inner_jobs = 4 cell's bits must equal the
  // identical cell re-run with a serial inner path.
  for (const ServeResult& is : inner_serial) {
    for (const ServeResult& r : results) {
      if (r.config.label != is.config.label) continue;
      if (r.fingerprint() != is.fingerprint()) {
        std::cout << "FAIL: cell '" << r.config.label
                  << "' fingerprint differs between inner_jobs="
                  << r.config.inner_jobs << " and inner_jobs=1\n";
        ok = false;
      }
    }
  }
  bool any_hits = false;
  for (const ServeResult& r : results) any_hits |= r.decode.hits > 0;
  any_hits |= batched.decode.hits > 0;
  if (!any_hits) {
    std::cout << "FAIL: no coalesced round ever hit the DecodeContext cache\n";
    ok = false;
  }
  if (ratio < 3.0) {
    std::cout << "FAIL: amortization ratio " << util::fmt(ratio, 2)
              << "x < 3x at k=40\n";
    ok = false;
  }
  if (ok) {
    std::cout << "acceptance: deterministic sweep (jobs and inner_jobs), "
                 "cache hits observed, >= 3x decode amortization at k=40 — "
                 "PASS\n";
  }
  return ok ? 0 : 1;
}
