#include "src/util/table.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "src/util/require.h"

namespace s2c2::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  S2C2_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  S2C2_REQUIRE(cells.size() <= headers_.size(),
               "row has more cells than headers");
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << "  " << std::left << std::setw(static_cast<int>(widths[c]))
         << row[c];
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << "  " << std::string(total > 2 ? total - 2 : 0, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

void Table::print() const { std::cout << to_string() << std::flush; }

std::string fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string fmt_sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2e", v);
  return buf;
}

}  // namespace s2c2::util
