#include "storage/snapshot.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/check.hpp"
#include "common/format.hpp"
#include "core/plan.hpp"
#include "core/registry.hpp"
#include "storage/wire.hpp"
#include "tree/serialize.hpp"

namespace treesat {

namespace {

constexpr std::string_view kMagic = "treesat_snapshot";
constexpr std::string_view kVersion = "v2";

[[nodiscard]] std::uint64_t bit_pattern(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

[[nodiscard]] double from_bit_pattern(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

[[nodiscard]] bool token_safe(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
         c == '_' || c == '.' || c == '-';
}

// Escapes are canonically uppercase; lowercase is rejected so every raw
// string has exactly one encoding (injectivity both ways).
[[nodiscard]] int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

ResolvePath parse_resolve_path(std::string_view name) {
  for (const ResolvePath p : {ResolvePath::kInitial, ResolvePath::kWarm, ResolvePath::kCold}) {
    if (name == resolve_path_name(p)) return p;
  }
  TS_REQUIRE(false, "snapshot: unknown resolve path '" << name << "'");
  __builtin_unreachable();
}

/// Appends one cache section. Colour entries (`colour_level`) carry, per
/// point, the index it took in each of its regions' frontiers; region
/// entries carry each point's cut.
void encode_cache(std::string& out, const char* label,
                  const std::vector<SessionState::CacheEntry>& entries, bool colour_level) {
  out += label;
  out += ' ';
  wire::append_u64(out, entries.size());
  out += '\n';
  for (const SessionState::CacheEntry& e : entries) {
    const FrontierEntry& f = e.frontier;
    out += "entry ";
    wire::append_u64(out, e.key_words.size());
    for (const std::uint64_t w : e.key_words) {
      out += ' ';
      wire::append_hex(out, w);
    }
    out += ' ';
    wire::append_u64(out, f.size());
    out += '\n';
    TS_CHECK(f.host.size() == f.size(), "snapshot: cached frontier loads and hosts differ");
    const std::size_t row = colour_level && f.size() > 0 ? f.region_index.size() / f.size() : 0;
    TS_CHECK(colour_level ? f.region_index.size() == row * f.size()
                          : f.cut_offsets.size() == f.size() + 1 &&
                                f.cut_offsets.back() <= f.cut_positions.size(),
             "snapshot: malformed " << label << " entry");
    for (std::size_t i = 0; i < f.size(); ++i) {
      // Point coordinates are IEEE-754 bit patterns in hex: exact by
      // construction and an order of magnitude faster to parse than
      // decimal, which is what keeps restoring a big snapshot cheaper
      // than re-solving it (points are most of a snapshot's bytes).
      out += "point ";
      wire::append_hex16(out, bit_pattern(f.load[i]));
      out += ' ';
      wire::append_hex16(out, bit_pattern(f.host[i]));
      if (colour_level) {
        for (std::size_t k = 0; k < row; ++k) {
          out += ' ';
          wire::append_u64(out, f.region_index[i * row + k]);
        }
        out += '\n';
        continue;
      }
      const std::uint32_t begin = f.cut_offsets[i];
      const std::uint32_t end = f.cut_offsets[i + 1];
      TS_CHECK(begin <= end && end <= f.cut_positions.size(),
               "snapshot: cached cut offsets must be monotone and in range");
      out += ' ';
      wire::append_u64(out, end - begin);
      // Cut positions are strictly increasing (the canonical cut form), so
      // they delta-encode: first absolute, then gaps. Gaps are short where
      // absolute positions are wide.
      for (std::uint32_t c = begin; c < end; ++c) {
        const std::uint32_t v = f.cut_positions[c];
        TS_CHECK(c == begin || v > f.cut_positions[c - 1],
                 "snapshot: cached cut positions must be strictly increasing");
        out += ' ';
        wire::append_u64(out, c == begin ? v : v - f.cut_positions[c - 1]);
      }
      out += '\n';
    }
  }
}

// Floors bounded_count divides by: the shortest entry and point lines are
// "entry 0 0\n" and "point 0 0 0\n", and a key word or cut position is at
// least one byte of its line.
constexpr std::size_t kMinEntryLine = 10;
constexpr std::size_t kMinPointLine = 12;
constexpr std::size_t kMinToken = 1;

/// One uint32 token of a point line: cut positions and region indices are
/// 32-bit in the cache.
std::uint32_t take_u32(std::uint64_t value, const char* what) {
  TS_REQUIRE(value <= UINT32_MAX, "snapshot: " << what << " " << value << " overflows 32 bits");
  return static_cast<std::uint32_t>(value);
}

std::vector<SessionState::CacheEntry> decode_cache(wire::LineReader& reader, const char* label,
                                                   bool colour_level) {
  const std::vector<std::string_view> head =
      wire::split_tokens(reader.next(label), label);
  TS_REQUIRE(head.size() == 2 && head[0] == label,
             "snapshot: expected a '" << label << "' line");
  const std::size_t count = wire::bounded_count(wire::parse_u64(head[1], "cache entry count"),
                                                reader.remaining(), kMinEntryLine,
                                                "cache entry count");
  std::vector<SessionState::CacheEntry> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    wire::TokenCursor cur(reader.next("cache entry"), "cache entry");
    cur.expect("entry");
    SessionState::CacheEntry entry;
    const std::size_t nwords = wire::bounded_count(cur.take_u64("entry word count"),
                                                   cur.remaining(), kMinToken,
                                                   "entry word count");
    entry.key_words.reserve(nwords);
    for (std::size_t w = 0; w < nwords; ++w) {
      entry.key_words.push_back(cur.take_hex64("key word"));
    }
    const std::uint64_t declared_points = cur.take_u64("frontier point count");
    cur.finish();
    const std::size_t npoints = wire::bounded_count(declared_points, reader.remaining(),
                                                    kMinPointLine, "frontier point count");
    FrontierEntry& f = entry.frontier;
    f.load.reserve(npoints);
    f.host.reserve(npoints);
    if (!colour_level) {
      f.cut_offsets.reserve(npoints + 1);
      f.cut_offsets.push_back(0);
    }
    // A colour point's region indices, or a region point's cut positions.
    std::vector<std::uint32_t>& tokens = colour_level ? f.region_index : f.cut_positions;
    std::size_t row = 0;  // a colour entry's indices per point
    for (std::size_t p = 0; p < npoints; ++p) {
      wire::TokenCursor pt(reader.next("frontier point"), "frontier point");
      pt.expect("point");
      f.load.push_back(from_bit_pattern(pt.take_hex64("point load")));
      f.host.push_back(from_bit_pattern(pt.take_hex64("point host")));
      if (colour_level) {
        const std::size_t before = tokens.size();
        while (pt.remaining() > 0) {
          tokens.push_back(take_u32(pt.take_u64("region index"), "region index"));
        }
        const std::size_t width = tokens.size() - before;
        TS_REQUIRE(width > 0, "snapshot: colour point without region indices");
        TS_REQUIRE(p == 0 || width == row, "snapshot: colour point carries "
                                               << width << " region indices, its entry's first "
                                               << row);
        row = width;
        continue;
      }
      const std::size_t k = wire::bounded_count(pt.take_u64("point cut size"), pt.remaining(),
                                                kMinToken, "point cut size");
      std::uint64_t position = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const std::uint64_t delta = pt.take_u64("cut position");
        TS_REQUIRE(c == 0 || delta > 0, "snapshot: cut position delta of zero "
                                        "(positions must be strictly increasing)");
        TS_REQUIRE(delta <= UINT64_MAX - position, "snapshot: cut position overflows");
        position = c == 0 ? delta : position + delta;
        tokens.push_back(take_u32(position, "cut position"));
      }
      pt.finish();
      f.cut_offsets.push_back(take_u32(tokens.size(), "cut offset"));
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::string encode_payload(const SessionState& state) {
  TS_CHECK(state.tenant.find('\n') == std::string::npos &&
               state.instance.find('\n') == std::string::npos &&
               state.plan_spec.find('\n') == std::string::npos &&
               state.stats.cold_reason.find('\n') == std::string::npos,
           "snapshot: session state fields must be newline-free");
  TS_CHECK(!state.tree_text.empty() && state.tree_text.back() == '\n',
           "snapshot: tree text must be newline-terminated v1 text");
  std::string out;
  out += "owner ";
  out += encode_token(state.tenant);
  out += ' ';
  out += encode_token(state.instance);
  out += '\n';
  std::size_t tree_lines = 0;
  for (const char c : state.tree_text) tree_lines += c == '\n' ? 1 : 0;
  out += "tree ";
  wire::append_u64(out, tree_lines);
  out += '\n';
  out += state.tree_text;
  if (!state.has_session()) {
    out += "end\n";
    return out;
  }
  out += "plan ";
  out += state.plan_spec;
  out += '\n';
  out += "cut ";
  wire::append_u64(out, state.cut.size());
  for (const CruId v : state.cut) {
    out += ' ';
    wire::append_u64(out, v.index());
  }
  out += '\n';
  out += "report ";
  out += method_name(state.method);
  out += ' ';
  out += method_name(state.requested);
  out += state.exact ? " 1 " : " 0 ";
  out += shortest_round_trip(state.objective_value);
  out += '\n';
  if (state.has_dp_stats) {
    const ParetoDpStats& dp = state.dp_stats;
    out += "dp_stats";
    for (const std::size_t counter :
         {dp.max_region_frontier, dp.max_colour_frontier, dp.candidates_swept, dp.arena_bytes,
          dp.peak_frontier, dp.minkowski_merges, dp.merge_points_generated,
          dp.merge_points_kept}) {
      out += ' ';
      wire::append_u64(out, counter);
    }
    out += '\n';
  } else {
    out += "no_dp_stats\n";
  }
  const ResolveStats& st = state.stats;
  out += "stats ";
  out += resolve_path_name(st.path);
  for (const std::size_t counter : {st.step, st.regions_total, st.regions_reused,
                                    st.regions_recomputed, st.colours_total, st.colours_reused,
                                    st.cache_entries}) {
    out += ' ';
    wire::append_u64(out, counter);
  }
  out += st.incumbent_used ? " 1\n" : " 0\n";
  out += "cold_reason";
  if (!st.cold_reason.empty()) {
    out += ' ';
    out += st.cold_reason;
  }
  out += '\n';
  encode_cache(out, "colour_cache", state.colour_cache, /*colour_level=*/true);
  encode_cache(out, "region_cache", state.region_cache, /*colour_level=*/false);
  out += "end\n";
  return out;
}

SessionState decode_payload(std::string_view payload) {
  wire::LineReader reader(payload);
  SessionState state;

  const std::vector<std::string_view> owner =
      wire::split_tokens(reader.next("owner"), "owner");
  TS_REQUIRE(owner.size() == 3 && owner[0] == "owner", "snapshot: expected an 'owner' line");
  state.tenant = decode_token(std::string(owner[1]));
  state.instance = decode_token(std::string(owner[2]));

  const std::vector<std::string_view> tree_head =
      wire::split_tokens(reader.next("tree"), "tree");
  TS_REQUIRE(tree_head.size() == 2 && tree_head[0] == "tree",
             "snapshot: expected a 'tree' line");
  const std::uint64_t tree_lines = wire::parse_u64(tree_head[1], "tree line count");
  for (std::uint64_t i = 0; i < tree_lines; ++i) {
    state.tree_text += reader.next("tree text");
    state.tree_text += '\n';
  }
  // Parse once here so a decoded state is guaranteed usable; the v1 parser
  // supplies the structural error messages.
  const CruTree tree = tree_from_text(state.tree_text);

  const std::string_view line = reader.next("plan or end");
  if (line == "end") {
    TS_REQUIRE(reader.done(), "snapshot: trailing bytes after 'end'");
    return state;
  }

  state.plan_spec = wire::rest_of_line(line, "plan");
  TS_REQUIRE(!state.plan_spec.empty(), "snapshot: session snapshot with an empty plan");
  static_cast<void>(parse_plan(state.plan_spec));  // reject unparseable plans at decode time

  const std::vector<std::string_view> cut = wire::split_tokens(reader.next("cut"), "cut");
  TS_REQUIRE(cut.size() >= 2 && cut[0] == "cut", "snapshot: expected a 'cut' line");
  const std::uint64_t cut_size = wire::parse_u64(cut[1], "cut size");
  TS_REQUIRE(cut.size() == 2 + cut_size,
             "snapshot: cut declares " << cut_size << " nodes but carries " << cut.size() - 2);
  for (std::uint64_t i = 0; i < cut_size; ++i) {
    const std::uint64_t pos = wire::parse_u64(cut[2 + i], "cut node");
    TS_REQUIRE(pos < tree.size(),
               "snapshot: cut node " << pos << " is outside the " << tree.size() << "-node tree");
    state.cut.emplace_back(static_cast<std::size_t>(pos));
  }

  const std::vector<std::string_view> report =
      wire::split_tokens(reader.next("report"), "report");
  TS_REQUIRE(report.size() == 5 && report[0] == "report",
             "snapshot: expected a 'report' line");
  state.method = parse_method(report[1]);
  state.requested = parse_method(report[2]);
  TS_REQUIRE(report[3] == "0" || report[3] == "1", "snapshot: malformed exact flag");
  state.exact = report[3] == "1";
  state.objective_value = wire::parse_double_tok(report[4], "objective");

  const std::string_view dp_line = reader.next("dp_stats");
  if (dp_line != "no_dp_stats") {
    const std::vector<std::string_view> dp = wire::split_tokens(dp_line, "dp_stats");
    TS_REQUIRE(dp.size() == 9 && dp[0] == "dp_stats",
               "snapshot: expected a 'dp_stats' or 'no_dp_stats' line");
    state.has_dp_stats = true;
    std::size_t* const fields[] = {
        &state.dp_stats.max_region_frontier,    &state.dp_stats.max_colour_frontier,
        &state.dp_stats.candidates_swept,       &state.dp_stats.arena_bytes,
        &state.dp_stats.peak_frontier,          &state.dp_stats.minkowski_merges,
        &state.dp_stats.merge_points_generated, &state.dp_stats.merge_points_kept};
    for (std::size_t i = 0; i < 8; ++i) {
      *fields[i] = static_cast<std::size_t>(wire::parse_u64(dp[1 + i], "dp_stats counter"));
    }
  }

  const std::vector<std::string_view> stats =
      wire::split_tokens(reader.next("stats"), "stats");
  TS_REQUIRE(stats.size() == 10 && stats[0] == "stats", "snapshot: expected a 'stats' line");
  state.stats.path = parse_resolve_path(stats[1]);
  std::size_t* const counters[] = {&state.stats.step,           &state.stats.regions_total,
                                   &state.stats.regions_reused, &state.stats.regions_recomputed,
                                   &state.stats.colours_total,  &state.stats.colours_reused,
                                   &state.stats.cache_entries};
  for (std::size_t i = 0; i < 7; ++i) {
    *counters[i] = static_cast<std::size_t>(wire::parse_u64(stats[2 + i], "stats counter"));
  }
  TS_REQUIRE(stats[9] == "0" || stats[9] == "1", "snapshot: malformed incumbent flag");
  state.stats.incumbent_used = stats[9] == "1";
  state.stats.cold_reason = wire::rest_of_line(reader.next("cold_reason"), "cold_reason");

  state.colour_cache = decode_cache(reader, "colour_cache", /*colour_level=*/true);
  state.region_cache = decode_cache(reader, "region_cache", /*colour_level=*/false);

  TS_REQUIRE(reader.next("end") == "end", "snapshot: expected the 'end' sentinel");
  TS_REQUIRE(reader.done(), "snapshot: trailing bytes after 'end'");
  return state;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string encode_token(const std::string& raw) {
  if (raw.empty()) return "%";
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    if (token_safe(c)) {
      out += c;
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", static_cast<unsigned char>(c));
      out += buf;
    }
  }
  return out;
}

std::string decode_token(const std::string& encoded) {
  TS_REQUIRE(!encoded.empty(), "snapshot: empty encoded token");
  if (encoded == "%") return std::string();
  std::string out;
  out.reserve(encoded.size());
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    const char c = encoded[i];
    if (c == '%') {
      TS_REQUIRE(i + 2 < encoded.size(), "snapshot: truncated %XX escape in token");
      const int hi = hex_digit(encoded[i + 1]);
      const int lo = hex_digit(encoded[i + 2]);
      TS_REQUIRE(hi >= 0 && lo >= 0, "snapshot: malformed %XX escape in token");
      out += static_cast<char>(hi * 16 + lo);
      i += 2;
    } else {
      TS_REQUIRE(token_safe(c), "snapshot: unencoded byte in token");
      out += c;
    }
  }
  return out;
}

std::string snapshot_file_name(const std::string& tenant, const std::string& instance) {
  return encode_token(tenant) + "@" + encode_token(instance) + ".tss";
}

std::string frame_payload(std::string_view magic, std::string_view version,
                          std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + 64);
  out += magic;
  out += ' ';
  out += version;
  out += '\n';
  out += "bytes ";
  wire::append_u64(out, payload.size());
  out += '\n';
  out += "hash ";
  wire::append_hex16(out, fnv1a64(payload));
  out += '\n';
  out += payload;
  return out;
}

std::string_view unframe_payload(std::string_view magic, std::string_view version,
                                 std::string_view bytes, const char* what) {
  TS_REQUIRE(!bytes.empty(), what << ": empty file");

  const auto take_line = [&bytes, what](const char* field) {
    TS_REQUIRE(!bytes.empty(), what << ": truncated header, missing " << field);
    const std::size_t nl = bytes.find('\n');
    TS_REQUIRE(nl != std::string_view::npos,
               what << ": header line for " << field << " lacks a newline");
    const std::string_view line = bytes.substr(0, nl);
    bytes.remove_prefix(nl + 1);
    return line;
  };

  const std::string_view magic_line = take_line("magic");
  const std::size_t space = magic_line.find(' ');
  TS_REQUIRE(space != std::string_view::npos && magic_line.substr(0, space) == magic,
             what << ": not a " << magic << " file (bad magic)");
  const std::string_view found_version = magic_line.substr(space + 1);
  TS_REQUIRE(found_version == version,
             what << ": unsupported version '" << found_version << "' (this build reads "
                  << version << ")");

  const std::string_view bytes_line = take_line("byte count");
  TS_REQUIRE(bytes_line.substr(0, 6) == "bytes ", what << ": malformed byte-count header");
  const std::uint64_t payload_bytes =
      wire::parse_u64(bytes_line.substr(6), "payload byte count");

  const std::string_view hash_line = take_line("content hash");
  TS_REQUIRE(hash_line.substr(0, 5) == "hash ", what << ": malformed content-hash header");
  const std::string_view hash_hex = hash_line.substr(5);
  TS_REQUIRE(hash_hex.size() == 16, what << ": content hash must be 16 hex digits");
  const std::uint64_t declared_hash = wire::parse_hex64(hash_hex, "content hash");

  TS_REQUIRE(bytes.size() >= payload_bytes,
             what << ": truncated payload (" << bytes.size() << " of " << payload_bytes
                  << " bytes)");
  TS_REQUIRE(bytes.size() == payload_bytes,
             what << ": " << bytes.size() - payload_bytes << " trailing bytes after payload");
  const std::string_view payload = bytes.substr(0, payload_bytes);
  const std::uint64_t actual_hash = fnv1a64(payload);
  TS_REQUIRE(actual_hash == declared_hash,
             what << ": content hash mismatch (file says " << wire::hex16(declared_hash)
                  << ", payload hashes to " << wire::hex16(actual_hash) << ")");
  return payload;
}

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ResourceLimit("storage: cannot open " + path);
  }
  std::string bytes;
  in.seekg(0, std::ios::end);
  const std::streampos size = in.tellg();
  if (size > 0) {
    bytes.resize(static_cast<std::size_t>(size));
    in.seekg(0, std::ios::beg);
    in.read(bytes.data(), size);
    if (!in) {
      throw ResourceLimit("storage: short read from " + path);
    }
  }
  return bytes;
}

void write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw ResourceLimit("storage: cannot write " + tmp);
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw ResourceLimit("storage: short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw ResourceLimit("storage: cannot rename " + tmp + " onto " + path);
  }
}

std::string encode_snapshot(const SessionState& state) {
  return frame_payload(kMagic, kVersion, encode_payload(state));
}

SessionState decode_snapshot(std::string_view bytes) {
  return decode_payload(unframe_payload(kMagic, kVersion, bytes, "snapshot"));
}

void write_snapshot_file(const std::string& path, const SessionState& state) {
  write_file_atomic(path, encode_snapshot(state));
}

SessionState read_snapshot_file(const std::string& path) {
  return decode_snapshot(read_file_bytes(path));
}

}  // namespace treesat
