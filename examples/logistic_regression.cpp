// Coded logistic regression (the paper's §6.3 ML workload) under every
// job-driver strategy. harness::run_job runs both gradient products of
// each iteration (X·w and Xᵀ·r) through the strategy's engine, so every
// training step is straggler-protected, and checks each iterate against
// uncoded gradient descent run in lockstep.
//
//   build/examples/logistic_regression
#include <iostream>

#include "src/harness/job_driver.h"
#include "src/util/table.h"

int main() {
  using namespace s2c2;
  harness::JobConfig cfg;  // controlled stragglers, seed 42
  cfg.app = harness::JobApp::kLogReg;
  cfg.max_iterations = 20;
  cfg.tolerance = 0.0;  // every strategy runs all 20 iterations
  std::cout << "Coded logistic regression on a " << cfg.workers
            << "-worker cluster (k=" << cfg.effective_k() << ") with "
            << cfg.stragglers << " stragglers\n\n";

  util::Table t({"strategy", "loss @1", "loss @10", "loss @20", "job (ms)",
                 "vs s2c2", "timeout %", "max |w - w_ref|"});
  double s2c2_time = 0.0;
  for (const harness::StrategyKind s : harness::extended_job_strategies()) {
    cfg.strategy = s;
    const harness::JobResult job = harness::run_job(cfg);
    if (job.failed) {
      t.add_row({core::strategy_name(s), "failed: " + job.error});
      continue;
    }
    if (s == harness::StrategyKind::kS2C2) s2c2_time = job.completion_time;
    t.add_row({core::strategy_name(s), util::fmt(job.convergence[0], 5),
               util::fmt(job.convergence[9], 5),
               util::fmt(job.convergence[19], 5),
               util::fmt(job.completion_time * 1e3, 1),
               util::fmt(job.completion_time / s2c2_time, 2) + "x",
               util::fmt(100.0 * job.timeout_rate, 1),
               util::fmt_sci(job.solution_error)});
  }
  t.print();
  std::cout << "\nEvery strategy trains the same model: the losses agree and "
               "the weights stay\nwithin decode noise of uncoded gradient "
               "descent. Only the job time differs.\n";
  return 0;
}
