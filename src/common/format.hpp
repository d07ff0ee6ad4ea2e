// Shared numeric formatting.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <string>
#include <system_error>

namespace treesat {

/// Appends the bytes printf's "%.*g" writes for `v` at the smallest
/// precision, never below 6, whose string parses back to exactly `v` (17
/// always does for a finite double; NaN never does and prints at 17, as
/// "nan" or "-nan").
/// This is the one copy of the round-trip formatter that tree
/// serialization, JSON reports, plan specs and the bench JSON files all
/// share -- their round-trip properties (serialize_round_trip_test, the
/// golden files, plan_spec re-parsing) depend on these staying the same
/// function, and tests/format_round_trip_test.cpp holds it to the bytes of
/// the printf/scanf loop that first defined it (tests/format_reference.hpp).
///
/// No precision below the digit count of the shortest round-trip form
/// (std::to_chars' scientific output) can parse back, so the search starts
/// there; std::to_chars with an explicit precision is specified as printf's
/// %g. The correctly rounded string at that precision can still miss when
/// `v` sits on a power-of-two boundary, whose rounding interval is
/// lopsided, so each candidate is checked with std::from_chars and the
/// precision steps up as the printf loop did.
inline void append_shortest_round_trip(std::string& out, double v) {
  char buf[64];
  char* const end = buf + sizeof(buf);
  int precision = 6;
  if (std::isfinite(v) && v != 0.0) {
    const char* const shortest = std::to_chars(buf, end, v, std::chars_format::scientific).ptr;
    int digits = 0;
    for (const char* c = buf; c != shortest && *c != 'e'; ++c) {
      if (*c >= '0' && *c <= '9') ++digits;
    }
    precision = std::max(precision, digits);
  }
  for (;; ++precision) {
    char* const last = std::to_chars(buf, end, v, std::chars_format::general, precision).ptr;
    double back = 0.0;
    // An overflow to infinity (result_out_of_range) never equals a finite v.
    const std::from_chars_result parsed = std::from_chars(buf, last, back);
    if (precision >= 17 || (parsed.ec == std::errc() && back == v)) {
      out.append(buf, static_cast<std::size_t>(last - buf));
      return;
    }
  }
}

/// shortest_round_trip's bytes in a fresh string.
inline std::string shortest_round_trip(double v) {
  std::string out;
  append_shortest_round_trip(out, v);
  return out;
}

}  // namespace treesat
