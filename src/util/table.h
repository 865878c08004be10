// Fixed-width console table printer for the examples' and benches' console
// output.
#pragma once

#include <string>
#include <vector>

namespace s2c2::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds a row; cells beyond the header count are a precondition violation.
  void add_row(std::vector<std::string> cells);

  /// Renders with column auto-sizing, one header rule.
  [[nodiscard]] std::string to_string() const;

  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (benchmark output helper).
[[nodiscard]] std::string fmt(double v, int precision = 3);

/// Scientific notation with 2 significant decimals (decode errors, norms).
[[nodiscard]] std::string fmt_sci(double v);

}  // namespace s2c2::util
