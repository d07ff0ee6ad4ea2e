#include "tree/serialize.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <optional>
#include <span>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/format.hpp"
#include "common/parse.hpp"

namespace treesat {

namespace {

/// Shortest decimal that parses back to exactly `v`, so that
/// tree_from_text(to_text(t)) is the identity on every cost (the property
/// tests/serialize_round_trip_test.cpp asserts).
std::string number(double v) { return shortest_round_trip(v); }

}  // namespace

bool serializable_name(const std::string& name) {
  return !name.empty() && std::none_of(name.begin(), name.end(), [](unsigned char c) {
    return std::isspace(c) != 0;
  });
}

void write_text(std::ostream& os, const CruTree& tree) {
  os << "cru_tree v1\n";
  os << "# id parent kind name host_time sat_time comm_up satellite\n";
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const CruNode& nd = tree.node(CruId{i});
    TS_REQUIRE(serializable_name(nd.name),
               "write_text: node " << i << " has an unserializable name '" << nd.name << "'");
    os << i << ' ';
    if (nd.parent.valid()) {
      os << nd.parent.value();
    } else {
      os << '-';
    }
    os << ' ' << (nd.is_sensor() ? "sensor" : "compute") << ' ' << nd.name << ' '
       << number(nd.host_time) << ' ' << number(nd.sat_time) << ' ' << number(nd.comm_up)
       << ' ';
    if (nd.satellite.valid()) {
      os << nd.satellite.value();
    } else {
      os << '-';
    }
    os << '\n';
  }
}

std::string to_text(const CruTree& tree) {
  std::ostringstream oss;
  write_text(oss, tree);
  return oss.str();
}

namespace {

/// Splits `line` on whitespace into `out` and returns the token count, or
/// out.size() + 1 as soon as the line holds more tokens than `out`. '\r'
/// is whitespace like ' ' and '\t', so CRLF text parses.
std::size_t split_fields(std::string_view line, std::span<std::string_view> out) {
  const auto space = [](char ch) {
    return ch == ' ' || ch == '\t' || ch == '\r' || ch == '\v' || ch == '\f';
  };
  std::size_t count = 0;
  std::size_t pos = 0;
  while (true) {
    while (pos < line.size() && space(line[pos])) ++pos;
    if (pos == line.size()) return count;
    if (count == out.size()) return count + 1;
    const std::size_t start = pos;
    while (pos < line.size() && !space(line[pos])) ++pos;
    out[count++] = line.substr(start, pos - start);
  }
}

/// A node or satellite id: strict decimal below the 32-bit id type's
/// invalid sentinel.
std::uint32_t parse_id(std::string_view token, const char* what) {
  const std::optional<std::uint64_t> id = parse_u64(token);
  TS_REQUIRE(id.has_value() && *id < CruId::kInvalid,
             "tree_from_text: bad " << what << " '" << token << "'");
  return static_cast<std::uint32_t>(*id);
}

/// A cost column: strict decimal, finite and non-negative. Checked here,
/// not left to the builder: sensor rows carry host and sat columns it never
/// reads, and "inf" or "nan" parse.
double parse_cost(std::string_view token, const char* what) {
  const std::optional<double> cost = parse_double(token);
  TS_REQUIRE(cost.has_value() && std::isfinite(*cost) && *cost >= 0.0,
             "tree_from_text: bad " << what << " '" << token
                                    << "' (want a finite non-negative number)");
  return *cost;
}

}  // namespace

CruTree tree_from_text(const std::string& text) {
  const std::string_view all = text;
  std::size_t pos = 0;
  const auto next_line = [&](std::string_view& line) {
    if (pos >= all.size()) return false;
    const std::size_t nl = std::min(all.find('\n', pos), all.size());
    line = all.substr(pos, nl - pos);
    pos = nl + 1;
    return true;
  };

  std::string_view header;
  next_line(header);
  TS_REQUIRE(header == "cru_tree v1", "tree_from_text: bad header '" << header << "'");

  CruTreeBuilder builder;
  std::string_view line;
  std::array<std::string_view, 8> fields;
  std::vector<std::string_view> names;  // views into `text`, sorted once at the end
  std::uint32_t expected_id = 0;
  while (next_line(line)) {
    if (line.empty() || line[0] == '#') continue;
    TS_REQUIRE(split_fields(line, fields) == fields.size(),
               "tree_from_text: malformed node line '" << line << "' (want "
                                                       << fields.size() << " fields)");
    const auto& [id_tok, parent_tok, kind, name_tok, h_tok, s_tok, c_tok, sat_tok] = fields;
    const std::uint32_t id = parse_id(id_tok, "id");
    TS_REQUIRE(id == expected_id,
               "tree_from_text: node ids must be dense and increasing; got "
                   << id << ", expected " << expected_id);
    ++expected_id;
    names.push_back(name_tok);
    const std::string name(name_tok);
    const double h = parse_cost(h_tok, "host_time");
    const double s = parse_cost(s_tok, "sat_time");
    const double c = parse_cost(c_tok, "comm_up");
    TS_REQUIRE(kind == "sensor" || sat_tok == "-",
               "tree_from_text: " << kind << " node " << id << " has a satellite");

    if (parent_tok == "-") {
      TS_REQUIRE(id == 0, "tree_from_text: only node 0 may be the root");
      TS_REQUIRE(kind == "compute", "tree_from_text: the root must be a compute node");
      builder.root(name, h);
      continue;
    }
    const std::uint32_t parent_id = parse_id(parent_tok, "parent");
    TS_REQUIRE(parent_id < id, "tree_from_text: parent " << parent_id
                                                         << " does not precede node " << id);
    if (kind == "compute") {
      builder.compute(CruId{parent_id}, name, h, s, c);
    } else if (kind == "sensor") {
      TS_REQUIRE(sat_tok != "-", "tree_from_text: sensor node " << id << " lacks a satellite");
      builder.sensor(CruId{parent_id}, name, SatelliteId{parse_id(sat_tok, "satellite")}, c);
    } else {
      throw InvalidArgument("tree_from_text: unknown node kind '" + std::string(kind) + "'");
    }
  }
  // Responses name cut nodes, and insert_probe its parent, by name.
  std::sort(names.begin(), names.end());
  const auto twice = std::adjacent_find(names.begin(), names.end());
  TS_REQUIRE(twice == names.end(), "tree_from_text: node name '" << *twice << "' appears twice");
  return builder.build();
}

}  // namespace treesat
