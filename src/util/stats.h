// Small descriptive-statistics helpers used by the accounting, prediction
// evaluation, allocation, and benchmark layers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace s2c2::util {

/// Arithmetic mean. Empty input is a precondition violation.
[[nodiscard]] double mean(std::span<const double> xs);

/// Population variance (divides by N).
[[nodiscard]] double variance(std::span<const double> xs);

[[nodiscard]] double stddev(std::span<const double> xs);

/// Linear-interpolation percentile, p in [0,100].
[[nodiscard]] double percentile(std::span<const double> xs, double p);

[[nodiscard]] double median(std::span<const double> xs);

/// Allocation-free percentile/median: identical arithmetic to the forms
/// above, but the sort copy lives in caller-owned scratch (warm capacity =
/// zero heap traffic). Used by the per-round allocators on the hot path.
[[nodiscard]] double percentile_scratch(std::span<const double> xs, double p,
                                        std::vector<double>& scratch);

[[nodiscard]] double median_scratch(std::span<const double> xs,
                                    std::vector<double>& scratch);

/// Mean Absolute Percentage Error (in percent, e.g. 16.7 for 16.7%).
/// Entries where |actual| < eps are skipped to avoid division blowup;
/// if all entries are skipped the result is 0.
[[nodiscard]] double mape(std::span<const double> predicted,
                          std::span<const double> actual,
                          double eps = 1e-12);

}  // namespace s2c2::util
