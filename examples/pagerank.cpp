// Coded PageRank over a power-law web graph (paper §6.3) under every
// job-driver strategy. The sparse link matrix is encoded once per job
// (systematic partitions stay CSR; parity densifies) and harness::run_job
// runs every power iteration as one straggler-protected product, checking
// the ranks against the uncoded power iteration in lockstep.
//
//   build/examples/pagerank
#include <iostream>

#include "src/harness/job_driver.h"
#include "src/util/table.h"

int main() {
  using namespace s2c2;
  harness::JobConfig cfg;  // controlled stragglers, seed 42
  cfg.app = harness::JobApp::kPageRank;
  cfg.max_iterations = 150;
  cfg.tolerance = 1e-8;  // L1 rank change
  std::cout << "Coded PageRank on a " << cfg.workers << "-worker cluster (k="
            << cfg.effective_k() << ") with " << cfg.stragglers
            << " stragglers\n\n";

  util::Table t({"strategy", "iterations", "job (ms)", "vs s2c2", "timeout %",
                 "waste %", "max |r - r_ref|"});
  double s2c2_time = 0.0;
  for (const harness::StrategyKind s : harness::extended_job_strategies()) {
    cfg.strategy = s;
    const harness::JobResult job = harness::run_job(cfg);
    if (job.failed) {
      t.add_row({core::strategy_name(s), "failed: " + job.error});
      continue;
    }
    if (s == harness::StrategyKind::kS2C2) s2c2_time = job.completion_time;
    t.add_row({core::strategy_name(s),
               std::to_string(job.iterations) +
                   (job.converged ? "" : " (cap)"),
               util::fmt(job.completion_time * 1e3, 1),
               util::fmt(job.completion_time / s2c2_time, 2) + "x",
               util::fmt(100.0 * job.timeout_rate, 1),
               util::fmt(100.0 * job.mean_wasted_fraction, 1),
               util::fmt_sci(job.solution_error)});
  }
  t.print();
  std::cout << "\nRanks match the uncoded power iteration to decode noise — "
               "coding changes\nwhere the work runs, never the answer.\n";
  return 0;
}
