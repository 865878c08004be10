#include "src/core/strategy_engine.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "src/util/require.h"

namespace s2c2::core {

StrategyEngine::StrategyEngine(StrategyKind kind, ClusterSpec spec,
                               std::unique_ptr<predict::SpeedPredictor>
                                   predictor)
    : spec_(std::move(spec)),
      predictor_(std::move(predictor)),
      accounting_(spec_.num_workers()),
      kind_(kind) {}

void StrategyEngine::set_inner_jobs(std::size_t jobs) {
  inner_jobs_ = jobs == 0 ? util::ThreadPool::hardware_threads() : jobs;
  inner_pool_ = inner_jobs_ >= 2
                    ? std::make_unique<util::ThreadPool>(inner_jobs_ - 1)
                    : nullptr;
}

void StrategyEngine::ensure_predictor(bool oracle_speeds) {
  if (!predictor_ && !oracle_speeds) {
    predictor_ =
        std::make_unique<predict::LastValuePredictor>(spec_.num_workers());
  }
}

RoundResult StrategyEngine::run_round_block(const linalg::Matrix& x_block,
                                            std::size_t width) {
  S2C2_REQUIRE(width >= 1, "block round width must be >= 1");
  S2C2_REQUIRE(x_block.empty() || x_block.cols() == width,
               "x_block must have exactly `width` columns");
  if (width == 1) {
    // A cols x 1 row-major panel is a contiguous vector — route it through
    // the classic path so b=1 block rounds are bit-for-bit unchanged.
    return run_round(x_block.empty() ? std::span<const double>{}
                                     : x_block.data());
  }
  S2C2_REQUIRE(supports_block_rounds(),
               std::string(strategy_name(kind_)) +
                   " does not support block rounds (width > 1)");
  return run_wide_round(x_block, width);
}

std::vector<RoundResult> StrategyEngine::run_rounds(
    std::size_t rounds, std::span<const double> x) {
  std::vector<RoundResult> out;
  out.reserve(rounds);
  for (std::size_t i = 0; i < rounds; ++i) out.push_back(run_round(x));
  return out;
}

double StrategyEngine::timeout_rate() const {
  return rounds_run_ > 0
             ? static_cast<double>(timeouts_) / static_cast<double>(rounds_run_)
             : 0.0;
}

double StrategyEngine::misprediction_rate() const {
  return predicted_rounds_ > 0
             ? static_cast<double>(mispredicted_rounds_) /
                   static_cast<double>(predicted_rounds_)
             : 0.0;
}

void StrategyEngine::count_prediction_round(std::span<const double> predicted,
                                            std::span<const double> observed) {
  S2C2_CHECK(predicted.size() == observed.size(),
             "one prediction per observed speed");
  bool sampled = false;
  bool mispredicted = false;
  for (std::size_t w = 0; w < observed.size(); ++w) {
    const double obs = observed[w];
    if (obs > 0.0) {
      sampled = true;
      mispredicted =
          mispredicted || std::abs(predicted[w] - obs) / obs > 0.15;
    }
  }
  predicted_rounds_ += sampled ? 1 : 0;
  mispredicted_rounds_ += mispredicted ? 1 : 0;
}

double total_latency(std::span<const RoundResult> results) {
  double acc = 0.0;
  for (const RoundResult& r : results) acc += r.stats.latency();
  return acc;
}

}  // namespace s2c2::core
