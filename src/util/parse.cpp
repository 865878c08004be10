#include "src/util/parse.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <system_error>

namespace s2c2::util {

namespace {

[[noreturn]] void reject(std::string_view text, std::string_view flag,
                         std::string_view expected) {
  std::string msg(flag);
  msg.append(" expects ").append(expected).append(", got '");
  msg.append(text).append("'");
  throw std::invalid_argument(msg);
}

}  // namespace

std::uint64_t parse_unsigned(std::string_view text, std::string_view flag,
                             std::uint64_t max) {
  // from_chars takes no whitespace, no '+', and no '-' for an unsigned
  // type; the end check rejects trailing junk.
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() || value > max) {
    reject(text, flag,
           max == std::numeric_limits<std::uint64_t>::max()
               ? "an unsigned integer"
               : "an unsigned integer <= " + std::to_string(max));
  }
  return value;
}

double parse_double(std::string_view text, std::string_view flag) {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() ||
      !std::isfinite(value)) {
    reject(text, flag, "a finite number");
  }
  return value;
}

}  // namespace s2c2::util
