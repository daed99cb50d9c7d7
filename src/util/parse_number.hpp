#pragma once

// Strict whole-string numeric parsing for command-line flags, scenario
// parameters and grammar fields.  The entire text must be the number: no
// leading '+' or whitespace, no trailing junk, no unsigned wrap of a
// '-' sign, no overflow, and a double must be finite.  Any violation
// yields nullopt, so every caller keeps its own error message and range
// checks.  std::from_chars is locale-independent, unlike stod/stoull.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>

namespace megflood {

inline std::optional<std::uint64_t> parse_u64_strict(std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

inline std::optional<double> parse_double_strict(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace megflood
