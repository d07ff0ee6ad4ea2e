// Byte-identity wall for the shortest-round-trip formatter
// (common/format.hpp): over a million seeded doubles from every class that
// stresses a float printer -- random bit patterns, cost-like products,
// short decimals, every power of two and its neighbours, subnormals and the
// specials -- shortest_round_trip must write exactly the bytes of the
// printf/scanf loop in tests/format_reference.hpp. Tree text, JSON
// responses, snapshots and plan specs all print their doubles through it,
// so one differing byte here is a golden file or a snapshot that moves.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "common/format.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "format_reference.hpp"

namespace treesat {
namespace {

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Compares the two formatters on `v` (and on -v) and counts the values
/// checked; stops recording failures after a few so a broken formatter
/// reports its first mismatches instead of a million.
class Comparer {
 public:
  void check(double v) {
    for (const double x : {v, -v}) {
      ++checked_;
      const std::string got = shortest_round_trip(x);
      const std::string want = reference::shortest_round_trip(x);
      if (got != want && ++mismatches_ <= 10) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &x, sizeof(bits));
        ADD_FAILURE() << "bits 0x" << std::hex << bits << ": got '" << got << "', want '"
                      << want << "'";
      }
    }
  }

  [[nodiscard]] std::size_t checked() const { return checked_; }
  [[nodiscard]] std::size_t mismatches() const { return mismatches_; }

 private:
  std::size_t checked_ = 0;
  std::size_t mismatches_ = 0;
};

TEST(FormatRoundTrip, PinnedLiterals) {
  // %g switches to an exponent below 1e-4 and at 10^precision; plain
  // shortest std::to_chars would write 1e-04 and 1e+05 for the first two.
  const std::pair<double, const char*> pins[] = {
      {0.0001, "0.0001"},
      {100000.0, "100000"},
      {1e-05, "1e-05"},
      {1234567.0, "1234567"},
      {0.052500000000000005, "0.052500000000000005"},
      {-0.0, "-0"},
      {0.0, "0"},
      {std::numeric_limits<double>::infinity(), "inf"},
      {-std::numeric_limits<double>::infinity(), "-inf"},
      {std::numeric_limits<double>::quiet_NaN(), "nan"},
      {0.1, "0.1"},
      {1.0 / 3.0, "0.3333333333333333"},
      {std::numeric_limits<double>::denorm_min(), "4.94066e-324"},
      {std::numeric_limits<double>::max(), "1.7976931348623157e+308"},
  };
  for (const auto& [value, text] : pins) {
    EXPECT_EQ(shortest_round_trip(value), text);
    EXPECT_EQ(reference::shortest_round_trip(value), text);
  }
}

TEST(FormatRoundTrip, MatchesTheReferenceOnAMillionSeededValues) {
  Rng rng(0xF0F7A7);
  Comparer cmp;

  // Random bit patterns: every exponent, full mantissas, and now and then
  // an infinity or a NaN payload.
  for (int i = 0; i < 225000; ++i) cmp.check(from_bits(rng()));

  // Cost-like values: a uniform cost scaled by a few drift factors, the
  // products the service prints for every CRU and every objective.
  for (int i = 0; i < 150000; ++i) {
    double v = rng.uniform_real(0.0, i % 2 == 0 ? 1.0 : 1e6);
    for (int k = static_cast<int>(rng.index(4)); k > 0; --k) v *= rng.uniform_real(0.8, 1.25);
    cmp.check(v);
  }

  // Short decimals (the values people type): up to seven digits at a
  // decimal exponent from -20 to 20, read through the strict parser.
  for (int i = 0; i < 100000; ++i) {
    const std::string text = std::to_string(rng.uniform_int(1, 9999999)) + "e" +
                             std::to_string(rng.uniform_int(-20, 20));
    cmp.check(*parse_double(text));
  }

  // Every power of two and its neighbours: the lopsided rounding intervals
  // where the correctly rounded shortest precision can fail to round-trip.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    cmp.check(p);
    cmp.check(std::nextafter(p, 0.0));
    cmp.check(std::nextafter(p, std::numeric_limits<double>::infinity()));
  }

  // Subnormals: random mantissas under the zero exponent.
  for (int i = 0; i < 25000; ++i) cmp.check(from_bits(rng() & ((std::uint64_t{1} << 52) - 1)));

  // The specials.
  for (const double v : {0.0, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::signaling_NaN(),
                         std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
                         std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::epsilon()}) {
    cmp.check(v);
  }

  EXPECT_GE(cmp.checked(), 1000000u);
  EXPECT_EQ(cmp.mismatches(), 0u);
}

}  // namespace
}  // namespace treesat
