// Strict text-to-value parsing, shared by every reader of client or disk
// input: plan specs (core/registry), service configs (service/service),
// fault plans (storage/faults), tree text (tree/serialize) and the storage
// codecs (storage/wire).
//
// A token parses completely or not at all: no leading whitespace, no sign
// on an unsigned value, no '+', no base prefix, no trailing junk, and an
// overflow is a rejection rather than a wrap. The value parsers return
// nullopt on rejection, so each caller raises its own typed error with its
// own message.
//
// The three `key=value` spec grammars (`method:k=v,k=v`, `k=v,k=v` and the
// fault plan's `k:v;k:v`) share one pair splitter and one duplicate-key
// check.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <system_error>
#include <vector>

namespace treesat {

/// Unsigned decimal: ASCII digits only, the whole token, no overflow.
[[nodiscard]] inline std::optional<std::uint64_t> parse_u64(std::string_view token) {
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// Decimal or scientific double (std::from_chars general format), the
/// whole token. "inf" and "nan" parse; callers needing a finite or
/// non-negative value check the result.
[[nodiscard]] inline std::optional<double> parse_double(std::string_view token) {
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// true/1/yes or false/0/no.
[[nodiscard]] inline std::optional<bool> parse_bool(std::string_view token) {
  if (token == "true" || token == "1" || token == "yes") return true;
  if (token == "false" || token == "0" || token == "no") return false;
  return std::nullopt;
}

/// One `key<assign>value` item of a spec string.
struct SpecPair {
  std::string_view key;
  std::string_view value;
};

/// Splits `spec` on `separator` into pairs, each cut at its first
/// `assign`. An item without `assign` or with an empty key is malformed,
/// and so is an empty item unless `skip_empty`; `on_malformed(item)` is
/// called with the first one and must throw.
template <typename OnMalformed>
[[nodiscard]] std::vector<SpecPair> split_spec(std::string_view spec, char separator,
                                               char assign, bool skip_empty,
                                               OnMalformed&& on_malformed) {
  std::vector<SpecPair> pairs;
  while (true) {
    const std::size_t cut = spec.find(separator);
    const std::string_view item = spec.substr(0, cut);
    if (!(item.empty() && skip_empty)) {
      const std::size_t at = item.find(assign);
      if (item.empty() || at == std::string_view::npos || at == 0) on_malformed(item);
      pairs.push_back({item.substr(0, at), item.substr(at + 1)});
    }
    if (cut == std::string_view::npos) return pairs;
    spec.remove_prefix(cut + 1);
  }
}

/// The first pair whose key repeats an earlier one after both pass through
/// `canonical` (so an alias and its key collide); nullptr when none does.
template <typename Canonical>
[[nodiscard]] const SpecPair* find_duplicate_key(std::span<const SpecPair> pairs,
                                                 Canonical&& canonical) {
  for (std::size_t a = 0; a < pairs.size(); ++a) {
    for (std::size_t b = a + 1; b < pairs.size(); ++b) {
      if (canonical(pairs[a].key) == canonical(pairs[b].key)) return &pairs[b];
    }
  }
  return nullptr;
}

[[nodiscard]] inline const SpecPair* find_duplicate_key(std::span<const SpecPair> pairs) {
  return find_duplicate_key(pairs, [](std::string_view key) { return key; });
}

}  // namespace treesat
