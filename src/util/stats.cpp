#include "src/util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/util/require.h"

namespace s2c2::util {

double mean(std::span<const double> xs) {
  S2C2_REQUIRE(!xs.empty(), "mean of empty range");
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  S2C2_REQUIRE(!xs.empty(), "variance of empty range");
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double percentile_scratch(std::span<const double> xs, double p,
                          std::vector<double>& scratch) {
  S2C2_REQUIRE(!xs.empty(), "percentile of empty range");
  S2C2_REQUIRE(p >= 0.0 && p <= 100.0, "percentile p outside [0,100]");
  scratch.assign(xs.begin(), xs.end());
  std::vector<double>& sorted = scratch;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median_scratch(std::span<const double> xs,
                      std::vector<double>& scratch) {
  return percentile_scratch(xs, 50.0, scratch);
}

double percentile(std::span<const double> xs, double p) {
  std::vector<double> scratch;
  return percentile_scratch(xs, p, scratch);
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double mape(std::span<const double> predicted, std::span<const double> actual,
            double eps) {
  S2C2_REQUIRE(predicted.size() == actual.size(),
               "mape requires equal-length series");
  double acc = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (std::abs(actual[i]) < eps) continue;
    acc += std::abs((predicted[i] - actual[i]) / actual[i]);
    ++counted;
  }
  if (counted == 0) return 0.0;
  return 100.0 * acc / static_cast<double>(counted);
}

}  // namespace s2c2::util
