#include "src/workload/trace_gen.h"

#include <algorithm>
#include <cmath>

#include "src/util/require.h"

namespace s2c2::workload {

CloudTraceConfig stable_cloud_config() {
  CloudTraceConfig c;
  c.switch_prob = 0.0;   // regimes never change mid-run
  c.ar_sigma = 0.008;    // gentle wander only
  // No deep-straggler regime: the paper's low-mis-prediction environment
  // (Fig 8) had "no significant variations in speeds between the nodes".
  c.regime_levels = {1.0, 0.85, 0.7};
  return c;
}

CloudTraceConfig volatile_cloud_config() {
  CloudTraceConfig c;
  // Per-node, per-iteration regime-switch probability of 6%: across a
  // 10-node fleet, 1 - 0.94^10 ~ 46% of iterations see a switch somewhere.
  // Not every switch is a > 15% miss: the measured per-round mis-prediction
  // rate on the Fig 10 set-up is 20% (claim fig10.mispredicted-rounds),
  // against the paper's worst-case "up to 18%".
  c.switch_prob = 0.06;
  c.ar_sigma = 0.02;
  c.recovery_ramp = 3;
  // Shared-tenancy contention: the fleet is mostly fast with sudden deep
  // but *transient* dips (the paper's droplet traces dip and recover;
  // persistent 5x stragglers only appear in the controlled cluster).
  c.regime_levels = {1.0, 0.95, 0.85, 0.5};
  c.deep_recovery_boost = 8.0;
  return c;
}

CloudTraceConfig bursty_colocation_config() {
  CloudTraceConfig c;
  // Frequent entry into one deep burst regime; the boosted deep-regime
  // switch probability clears a burst within a couple of samples, so the
  // signature is a high baseline pocked with short deep dips.
  c.switch_prob = 0.10;
  c.ar_sigma = 0.012;
  c.recovery_ramp = 2;
  c.regime_levels = {1.0, 0.95, 0.4};
  c.deep_recovery_boost = 6.0;
  return c;
}

CloudTraceConfig diurnal_config() {
  CloudTraceConfig c;
  c.switch_prob = 0.0;  // no regime churn — the period is the story
  c.ar_sigma = 0.006;
  c.regime_levels = {0.9};
  c.periodic_amplitude = 0.3;
  c.periodic_period = 16.0;
  c.periodic_period_jitter = 0.15;
  return c;
}

std::vector<double> fail_slow_series(std::size_t length,
                                     const FailSlowConfig& config,
                                     bool affected, util::Rng& rng) {
  S2C2_REQUIRE(length > 0, "series length must be positive");
  S2C2_REQUIRE(config.decay_per_sample > 0.0 && config.decay_per_sample < 1.0,
               "decay_per_sample in (0,1)");
  S2C2_REQUIRE(config.floor_speed > 0.0, "floor_speed must be positive");
  std::vector<double> out(length);
  const std::size_t onset = static_cast<std::size_t>(
      rng.uniform(config.onset_fraction_min, config.onset_fraction_max) *
      static_cast<double>(length));
  double base = 1.0;
  for (std::size_t t = 0; t < length; ++t) {
    if (affected && t >= onset) {
      base = std::max(config.floor_speed, base * config.decay_per_sample);
    }
    out[t] = std::max(config.floor_speed * 0.5,
                      base + rng.normal(0.0, config.ar_sigma));
  }
  return out;
}

std::vector<std::vector<double>> fail_slow_corpus(std::size_t num_series,
                                                  std::size_t length,
                                                  const FailSlowConfig& config,
                                                  util::Rng& rng) {
  std::vector<std::vector<double>> corpus;
  corpus.reserve(num_series);
  for (std::size_t i = 0; i < num_series; ++i) {
    const bool affected = rng.bernoulli(config.affected_fraction);
    corpus.push_back(fail_slow_series(length, config, affected, rng));
  }
  return corpus;
}

std::vector<double> cloud_speed_series(std::size_t length,
                                       const CloudTraceConfig& config,
                                       util::Rng& rng) {
  S2C2_REQUIRE(length > 0, "series length must be positive");
  S2C2_REQUIRE(!config.regime_levels.empty(), "need at least one regime");
  std::vector<double> out(length);

  std::size_t regime = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(
                             config.regime_levels.size() - 1)));
  double level = config.regime_levels[regime];
  double x = level;             // AR(1) state around the regime level
  double ramp_from = level;    // recovery ramp bookkeeping
  std::size_t ramp_left = 0;
  const double phase = rng.uniform(0.0, 2.0 * 3.14159265358979323846);
  const double period =
      config.periodic_period *
      rng.uniform(1.0 - config.periodic_period_jitter,
                  1.0 + config.periodic_period_jitter);

  const double deepest =
      *std::min_element(config.regime_levels.begin(),
                        config.regime_levels.end());
  for (std::size_t t = 0; t < length; ++t) {
    double switch_prob = config.switch_prob;
    if (level == deepest && config.regime_levels.size() > 1) {
      switch_prob = std::min(1.0, switch_prob * config.deep_recovery_boost);
    }
    if (rng.bernoulli(switch_prob)) {
      const auto next = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(config.regime_levels.size() - 1)));
      const double next_level =
          config.continuous_levels
              ? rng.uniform(config.continuous_level_min, 1.0)
              : config.regime_levels[next];
      if (next_level < level) {
        // Drops hit instantly (contention arrives, not departs).
        level = next_level;
        x = level;
        ramp_left = 0;
      } else {
        // Recoveries ramp over several samples — the asymmetry the LSTM
        // can learn and an AR(1) cannot.
        ramp_from = x;
        level = next_level;
        ramp_left = config.recovery_ramp;
      }
      regime = next;
    }
    double target = level;
    if (ramp_left > 0) {
      const double frac = 1.0 - static_cast<double>(ramp_left) /
                                    static_cast<double>(config.recovery_ramp);
      target = ramp_from + (level - ramp_from) * frac;
      --ramp_left;
    }
    x = target + config.ar_rho * (x - target) +
        rng.normal(0.0, config.ar_sigma);
    double value = x;
    if (config.periodic_amplitude > 0.0) {
      // Applied at the output (not the AR target) so the oscillation is
      // not low-passed away by the mean-reversion filter.
      value *= 1.0 + config.periodic_amplitude *
                         std::sin(2.0 * 3.14159265358979323846 *
                                      static_cast<double>(t) / period +
                                  phase);
    }
    out[t] = std::max(config.min_speed, value);
  }
  return out;
}

std::vector<std::vector<double>> cloud_speed_corpus(
    std::size_t num_series, std::size_t length, const CloudTraceConfig& config,
    util::Rng& rng) {
  std::vector<std::vector<double>> corpus;
  corpus.reserve(num_series);
  for (std::size_t i = 0; i < num_series; ++i) {
    corpus.push_back(cloud_speed_series(length, config, rng));
  }
  return corpus;
}

std::vector<sim::SpeedTrace> controlled_cluster_traces(
    std::size_t num_workers, std::size_t num_stragglers, double variation,
    util::Rng& rng, double straggler_speed) {
  S2C2_REQUIRE(num_stragglers <= num_workers, "too many stragglers");
  S2C2_REQUIRE(variation >= 0.0 && variation < 1.0, "variation in [0,1)");
  std::vector<sim::SpeedTrace> traces;
  traces.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    if (w >= num_workers - num_stragglers) {
      traces.push_back(sim::SpeedTrace::constant(straggler_speed));
    } else {
      traces.push_back(
          sim::SpeedTrace::constant(rng.uniform(1.0 - variation, 1.0)));
    }
  }
  return traces;
}

std::vector<sim::SpeedTrace> traces_from_series(
    const std::vector<std::vector<double>>& series, sim::Time dt) {
  std::vector<sim::SpeedTrace> out;
  out.reserve(series.size());
  for (const auto& s : series) {
    out.push_back(sim::SpeedTrace::from_samples(s, dt));
  }
  return out;
}

}  // namespace s2c2::workload
