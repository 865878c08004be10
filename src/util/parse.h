// Strict number parsing for command-line flags.
//
// std::stoul accepts a leading '-' (so "-1" wraps to 2^64 - 1), leading
// whitespace and trailing junk ("2zz" reads as 2). These parsers read the
// whole string with std::from_chars and reject all of that, plus overflow,
// with a std::invalid_argument that names the flag.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>

namespace s2c2::util {

/// Cap for thread-count flags (--jobs, --inner-jobs): a typo must not turn
/// into a request for millions of threads.
inline constexpr std::uint64_t kMaxThreadsFlag = 1024;

/// A decimal unsigned integer in [0, max]: digits only, no sign,
/// whitespace or suffix.
[[nodiscard]] std::uint64_t parse_unsigned(
    std::string_view text, std::string_view flag,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// A finite decimal floating-point number spanning the whole string.
[[nodiscard]] double parse_double(std::string_view text,
                                  std::string_view flag);

}  // namespace s2c2::util
