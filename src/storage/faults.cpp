#include "storage/faults.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/format.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"

namespace treesat {
namespace {

/// splitmix64 of a copy: the decision hash. Distinct from the service's
/// xoshiro streams on purpose -- the plan must not perturb any Rng state.
std::uint64_t mix64(std::uint64_t x) { return splitmix64(x); }

constexpr const char* kPointNames[kFaultPointCount] = {
    "spill_write", "spill_read", "truncate", "hash_flip", "dir_vanish", "restore_read",
};

std::uint64_t parse_seed(std::string_view value) {
  const std::optional<std::uint64_t> seed = parse_u64(value);
  TS_REQUIRE(seed.has_value(),
             "fault plan: bad seed '" << value << "' (want a non-negative integer)");
  return *seed;
}

double parse_probability(std::string_view key, std::string_view value) {
  const std::optional<double> p = parse_double(value);
  TS_REQUIRE(p.has_value(), "fault plan: bad probability '" << value << "' for " << key);
  TS_REQUIRE(*p >= 0.0 && *p <= 1.0,
             "fault plan: " << key << " probability " << value << " outside [0,1]");
  return *p;
}

}  // namespace

const char* fault_point_name(FaultPoint point) {
  const auto index = static_cast<std::size_t>(point);
  TS_CHECK(index < kFaultPointCount, "fault_point_name: bad point " << index);
  return kPointNames[index];
}

bool FaultPlan::enabled() const {
  for (const double p : probability) {
    if (p > 0.0) return true;
  }
  return false;
}

bool FaultPlan::fires(FaultPoint point) {
  const auto index = static_cast<std::size_t>(point);
  const std::uint64_t trial = trials_[index]++;
  const double p = probability[index];
  if (p <= 0.0) return false;
  // Decision = one mix of (seed, point, trial). The point salt keeps the
  // streams independent; >>11 * 2^-53 maps the hash onto [0,1).
  const std::uint64_t h =
      mix64(seed ^ (0xFA17ULL + index) * 0x9e3779b97f4a7c15ULL ^ mix64(trial));
  const bool hit = static_cast<double>(h >> 11) * 0x1.0p-53 < p;
  if (hit) ++fired_[index];
  return hit;
}

std::uint64_t FaultPlan::trials(FaultPoint point) const {
  return trials_[static_cast<std::size_t>(point)];
}

std::uint64_t FaultPlan::fired(FaultPoint point) const {
  return fired_[static_cast<std::size_t>(point)];
}

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  const std::vector<SpecPair> items =
      split_spec(spec, ';', ':', /*skip_empty=*/true, [](std::string_view item) {
        throw InvalidArgument("fault plan: expected subkey:value, got '" + std::string(item) +
                              "'");
      });
  if (const SpecPair* duplicate = find_duplicate_key(items)) {
    if (duplicate->key == "seed") throw InvalidArgument("fault plan: duplicate seed");
    throw InvalidArgument("fault plan: duplicate point '" + std::string(duplicate->key) + "'");
  }
  for (const auto& [key, value] : items) {
    if (key == "seed") {
      plan.seed = parse_seed(value);
      continue;
    }
    const auto* point = std::find(std::begin(kPointNames), std::end(kPointNames), key);
    TS_REQUIRE(point != std::end(kPointNames),
               "fault plan: unknown point '"
                   << key
                   << "' (accepted: seed, spill_write, spill_read, truncate, "
                      "hash_flip, dir_vanish, restore_read)");
    plan.probability[static_cast<std::size_t>(point - std::begin(kPointNames))] =
        parse_probability(key, value);
  }
  return plan;
}

std::string fault_plan_spec(const FaultPlan& plan) {
  std::string spec;
  if (plan.seed != 0) {
    spec += "seed:";
    spec += std::to_string(plan.seed);
  }
  for (std::size_t i = 0; i < kFaultPointCount; ++i) {
    if (plan.probability[i] <= 0.0) continue;
    if (!spec.empty()) spec += ';';
    spec += kPointNames[i];
    spec += ':';
    spec += shortest_round_trip(plan.probability[i]);
  }
  return spec;
}

std::string fault_truncate(std::string bytes) {
  bytes.resize(bytes.size() / 2);
  return bytes;
}

std::string fault_flip_byte(std::string bytes) {
  if (!bytes.empty()) bytes[bytes.size() / 2] ^= 0x20;
  return bytes;
}

}  // namespace treesat
