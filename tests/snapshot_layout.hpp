// A test-side walk over a v3 snapshot payload, written from the format
// comment in storage/snapshot.hpp rather than from the decoder: it records
// where each section starts, where each node row starts and where every u32
// count or length sits, so a test can damage exactly one field of a
// hash-valid file (snapshot_test) or cut and splice whole sections
// (fuzz_snapshot_test). It reads well-formed payloads only.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace treesat::test_support {

struct SnapshotLayout {
  struct Field {
    std::string name;
    std::size_t offset = 0;
  };
  /// Section starts in payload order ("owner", "nodes", "plan", then for a
  /// session "cut", "report", "dp_stats", "stats", "cold_reason",
  /// "colour_cache", "region_cache"), and "end" at the payload's size.
  std::vector<Field> sections;
  /// Every u32 count or string length, in payload order.
  std::vector<Field> counts;
  /// Start of each node-table row.
  std::vector<std::size_t> node_rows;

  [[nodiscard]] std::size_t section(std::string_view name) const {
    for (const Field& f : sections) {
      if (f.name == name) return f.offset;
    }
    throw std::out_of_range("snapshot layout: no section " + std::string(name));
  }
  /// Offset of the `nth` count named `name`.
  [[nodiscard]] std::size_t count(std::string_view name, std::size_t nth = 0) const {
    for (const Field& f : counts) {
      if (f.name == name && nth-- == 0) return f.offset;
    }
    throw std::out_of_range("snapshot layout: no count " + std::string(name));
  }
};

// Node row: u32 parent, u8 kind, u32 satellite, three f64 costs, name.
inline constexpr std::size_t kRowParent = 0;
inline constexpr std::size_t kRowKind = 4;
inline constexpr std::size_t kRowSatellite = 5;
inline constexpr std::size_t kRowHost = 9;
inline constexpr std::size_t kRowName = 33;

inline SnapshotLayout snapshot_layout(std::string_view payload) {
  SnapshotLayout out;
  std::size_t at = 0;
  const auto skip = [&](std::uint64_t n) {
    if (n > payload.size() - at) throw std::out_of_range("snapshot layout: walked off the end");
    at += static_cast<std::size_t>(n);
  };
  const auto u32 = [&](const char* name) {
    out.counts.push_back({name, at});
    std::uint32_t v = 0;
    if (payload.size() - at < 4) throw std::out_of_range("snapshot layout: walked off the end");
    std::memcpy(&v, payload.data() + at, 4);
    at += 4;
    return v;
  };
  const auto section = [&](const char* name) { out.sections.push_back({name, at}); };

  section("owner");
  skip(u32("tenant"));
  skip(u32("instance"));
  section("nodes");
  const std::uint32_t nodes = u32("nodes");
  for (std::uint32_t i = 0; i < nodes; ++i) {
    out.node_rows.push_back(at);
    skip(kRowName);
    skip(u32("name"));
  }
  section("plan");
  const std::uint32_t plan = u32("plan");
  skip(plan);
  if (plan != 0) {
    section("cut");
    skip(4 * std::uint64_t{u32("cut")});
    section("report");
    skip(u32("method"));
    skip(u32("requested"));
    skip(1 + 8);
    section("dp_stats");
    skip(1);
    if (payload[at - 1] == 1) skip(8 * 8);
    section("stats");
    skip(u32("path"));
    skip(7 * 8 + 1);
    section("cold_reason");
    skip(u32("cold_reason"));
    for (const bool colour : {true, false}) {
      section(colour ? "colour_cache" : "region_cache");
      const std::string level = colour ? "colour_" : "region_";
      const std::uint32_t entries = u32((level + "entries").c_str());
      for (std::uint32_t e = 0; e < entries; ++e) {
        skip(8 * std::uint64_t{u32((level + "words").c_str())});
        const std::uint64_t points = u32((level + "points").c_str());
        skip(16 * points);
        if (colour) {
          skip(4 * points * u32("colour_width"));
        } else {
          skip(4 * (points + 1));
          skip(4 * std::uint64_t{u32("region_positions")});
        }
      }
    }
  }
  if (at != payload.size()) throw std::out_of_range("snapshot layout: trailing bytes");
  section("end");
  return out;
}

/// `payload` with the u32 at `offset` replaced by `value`.
inline std::string with_u32(std::string payload, std::size_t offset, std::uint32_t value) {
  std::memcpy(payload.data() + offset, &value, 4);
  return payload;
}

}  // namespace treesat::test_support
