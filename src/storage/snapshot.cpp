#include "storage/snapshot.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "core/plan.hpp"
#include "core/registry.hpp"
#include "storage/wire.hpp"
#include "tree/serialize.hpp"

namespace treesat {

namespace {

constexpr std::string_view kMagic = "treesat_snapshot";
constexpr std::string_view kVersion = "v3";

// Floors bounded_count divides by: a node row is its parent, kind,
// satellite, three costs and a name of at least one byte; a cache entry is
// at least its three counts; a cut node is one u32.
constexpr std::size_t kMinNode = 4 + 1 + 4 + 3 * 8 + 4 + 1;
constexpr std::size_t kMinEntry = 3 * 4;
constexpr std::size_t kMinCutNode = 4;

/// Satellite ids size every solve's per-colour state. A tree that lost
/// satellites may carry ids past its node count, so a node table may name
/// ids up to the larger of its node count and this floor -- enough for any
/// tree the service admits below a million nodes, and too few for a hostile
/// id to size gigabytes.
constexpr std::uint64_t kSatelliteFloor = std::uint64_t{1} << 20;

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

bool take_flag(wire::ByteReader& in, const char* what) {
  const std::uint8_t flag = in.get<std::uint8_t>(what);
  TS_REQUIRE(flag <= 1, "snapshot: malformed " << what << " " << int{flag});
  return flag == 1;
}

/// The node table: per node in id order, its parent (the invalid sentinel
/// for the root), kind byte (0 compute, 1 sensor), satellite (the sentinel
/// on compute nodes), host/sat/comm_up costs and name.
void encode_tree(std::string& out, const CruTree& tree) {
  wire::put_count(out, tree.size());
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const CruNode& nd = tree.node(CruId{i});
    wire::put(out, nd.parent.value());
    wire::put(out, std::uint8_t{nd.is_sensor()});
    wire::put(out, nd.satellite.value());
    wire::put(out, nd.host_time);
    wire::put(out, nd.sat_time);
    wire::put(out, nd.comm_up);
    wire::put_string(out, nd.name);
  }
}

/// Builds the tree once, through CruTreeBuilder, with every check
/// tree_from_text applies (tree/serialize.hpp).
std::shared_ptr<const CruTree> decode_tree(wire::ByteReader& in) {
  const std::size_t nodes = in.count("node count", kMinNode);
  TS_REQUIRE(nodes > 0, "snapshot: empty node table");
  const std::uint64_t satellite_bound = std::max<std::uint64_t>(nodes, kSatelliteFloor);
  CruTreeBuilder builder;
  builder.reserve(nodes);  // bounded by the bytes left: each row takes kMinNode
  for (std::size_t i = 0; i < nodes; ++i) {
    const std::uint32_t parent = in.get<std::uint32_t>("node parent");
    const std::uint8_t kind = in.get<std::uint8_t>("node kind");
    const std::uint32_t satellite = in.get<std::uint32_t>("node satellite");
    double cost[3];
    for (double& c : cost) {
      c = in.get<double>("node cost");
      TS_REQUIRE(std::isfinite(c) && c >= 0.0,
                 "snapshot: node " << i << " has cost " << c
                                   << " (want a finite non-negative number)");
    }
    std::string name(in.string("node name"));
    TS_REQUIRE(serializable_name(name), "snapshot: node " << i << " has an unserializable name");
    TS_REQUIRE(kind <= 1, "snapshot: node " << i << " has kind byte " << int{kind});
    const bool sensor = kind == 1;
    TS_REQUIRE(sensor || satellite == SatelliteId::kInvalid,
               "snapshot: compute node " << i << " has a satellite");
    TS_REQUIRE(!sensor || satellite < satellite_bound,
               "snapshot: sensor node " << i << " names satellite " << satellite
                                        << "; ids stay below " << satellite_bound);
    if (i == 0) {
      TS_REQUIRE(parent == CruId::kInvalid && !sensor,
                 "snapshot: node 0 must be the compute root");
      builder.root(std::move(name), cost[0]);
      continue;
    }
    TS_REQUIRE(parent < i, "snapshot: parent " << parent << " does not precede node " << i);
    if (sensor) {
      builder.sensor(CruId{parent}, std::move(name), SatelliteId{satellite}, cost[2]);
    } else {
      builder.compute(CruId{parent}, std::move(name), cost[0], cost[1], cost[2]);
    }
  }
  return std::make_shared<const CruTree>(builder.build());
}

/// One cache section: the entry count, then per entry its key words, point
/// count, load[] and host[], then a colour entry's index width and
/// region_index rows, or a region entry's cut_offsets (points + 1) and
/// counted cut_positions.
void encode_cache(std::string& out, std::span<const CacheEntryView> entries, bool colour_level) {
  wire::put_count(out, entries.size());
  for (const CacheEntryView& e : entries) {
    const FrontierEntry& f = *e.frontier;
    TS_CHECK(f.host.size() == f.size(), "snapshot: cached frontier loads and hosts differ");
    wire::put_count(out, e.key_words.size());
    wire::put_block<std::uint64_t>(out, e.key_words);
    wire::put_count(out, f.size());
    wire::put_block<double>(out, f.load);
    wire::put_block<double>(out, f.host);
    if (colour_level) {
      const std::size_t width = f.size() > 0 ? f.region_index.size() / f.size() : 0;
      TS_CHECK(f.region_index.size() == width * f.size(),
               "snapshot: colour entry's region indices are not whole rows");
      wire::put_count(out, width);
      wire::put_block<std::uint32_t>(out, f.region_index);
    } else {
      TS_CHECK(f.cut_offsets.size() == f.size() + 1,
               "snapshot: region entry needs one cut offset more than its points");
      wire::put_block<std::uint32_t>(out, f.cut_offsets);
      wire::put_count(out, f.cut_positions.size());
      wire::put_block<std::uint32_t>(out, f.cut_positions);
    }
  }
}

std::vector<SessionState::CacheEntry> decode_cache(wire::ByteReader& in, bool colour_level) {
  const std::size_t count = in.count("cache entry count", kMinEntry);
  std::vector<SessionState::CacheEntry> entries(count);
  for (SessionState::CacheEntry& entry : entries) {
    in.block(entry.key_words, in.get<std::uint32_t>("key word count"), "key words");
    FrontierEntry& f = entry.frontier;
    const std::uint32_t points = in.get<std::uint32_t>("frontier point count");
    in.block(f.load, points, "point loads");
    in.block(f.host, points, "point hosts");
    if (colour_level) {
      const std::uint32_t width = in.get<std::uint32_t>("region index width");
      TS_REQUIRE(points == 0 || width > 0, "snapshot: colour entry without region indices");
      in.block(f.region_index, std::uint64_t{points} * width, "region indices");
    } else {
      in.block(f.cut_offsets, std::uint64_t{points} + 1, "cut offsets");
      in.block(f.cut_positions, in.get<std::uint32_t>("cut position count"), "cut positions");
    }
  }
  return entries;
}

/// Payload bytes of one cache section, so the encoder allocates once.
std::size_t cache_bytes(std::span<const CacheEntryView> entries) {
  std::size_t bytes = 4;
  for (const CacheEntryView& e : entries) {
    const FrontierEntry& f = *e.frontier;
    bytes += kMinEntry + 4 + e.key_words.size() * 8 + f.size() * 16 +
             (f.region_index.size() + f.cut_offsets.size() + f.cut_positions.size()) * 4;
  }
  return bytes;
}

/// Appends `source`'s payload to `out` and returns the offset in `out` where
/// its plan spec starts: everything before it from the payload's start is
/// the owner-and-node-table prefix a tree-only snapshot shares.
std::size_t encode_payload(std::string& out, const SnapshotSource& source) {
  TS_CHECK(source.tree != nullptr, "snapshot: session state without a tree");
  const CruTree& tree = *source.tree;
  out.reserve(out.size() + 256 + tree.size() * (kMinNode + 16) +
              cache_bytes(source.colour_cache) + cache_bytes(source.region_cache));
  wire::put_string(out, source.tenant);
  wire::put_string(out, source.instance);
  encode_tree(out, tree);
  const std::size_t tree_end = out.size();
  wire::put_string(out, source.plan_spec);
  if (source.plan_spec.empty()) return tree_end;

  TS_CHECK(source.stats != nullptr, "snapshot: session source without stats");
  wire::put_count(out, source.cut.size());
  for (const CruId v : source.cut) wire::put(out, v.value());
  wire::put_string(out, method_name(source.method));
  wire::put_string(out, method_name(source.requested));
  wire::put(out, std::uint8_t{source.exact});
  wire::put(out, source.objective_value);
  wire::put(out, std::uint8_t{source.dp_stats != nullptr});
  if (source.dp_stats != nullptr) {
    const ParetoDpStats& dp = *source.dp_stats;
    for (const std::size_t counter :
         {dp.max_region_frontier, dp.max_colour_frontier, dp.candidates_swept, dp.arena_bytes,
          dp.peak_frontier, dp.minkowski_merges, dp.merge_points_generated,
          dp.merge_points_kept}) {
      wire::put(out, std::uint64_t{counter});
    }
  }
  const ResolveStats& st = *source.stats;
  wire::put_string(out, resolve_path_name(st.path));
  for (const std::size_t counter : {st.step, st.regions_total, st.regions_reused,
                                    st.regions_recomputed, st.colours_total, st.colours_reused,
                                    st.cache_entries}) {
    wire::put(out, std::uint64_t{counter});
  }
  wire::put(out, std::uint8_t{st.incumbent_used});
  wire::put_string(out, st.cold_reason);
  encode_cache(out, source.colour_cache, /*colour_level=*/true);
  encode_cache(out, source.region_cache, /*colour_level=*/false);
  return tree_end;
}

/// Room a framing header needs ahead of a snapshot payload: the magic line,
/// "bytes " and a u64's 20 digits, "hash " and 16 hex digits, three
/// newlines.
constexpr std::size_t kHeaderGap = kMagic.size() + 1 + kVersion.size() + 6 + 20 + 5 + 16 + 3;

/// Appends frame_payload()'s header for `payload`.
void append_header(std::string& out, std::string_view magic, std::string_view version,
                   std::string_view payload) {
  out += magic;
  out += ' ';
  out += version;
  out += '\n';
  out += "bytes ";
  wire::append_u64(out, payload.size());
  out += '\n';
  out += "hash ";
  wire::append_hex16(out, fnv1a_bytes(payload));
  out += '\n';
}

/// Frames the snapshot payload `buffer` holds after its first kHeaderGap
/// bytes: writes the header into the end of that gap and returns the framed
/// bytes, a view into `buffer`. Nothing is copied but the header.
std::string_view frame_in_place(std::string& buffer) {
  const std::string_view payload = std::string_view(buffer).substr(kHeaderGap);
  std::string header;
  header.reserve(kHeaderGap);
  append_header(header, kMagic, kVersion, payload);
  TS_CHECK(header.size() <= kHeaderGap, "snapshot: header outgrew its gap");
  const std::size_t start = kHeaderGap - header.size();
  std::copy(header.begin(), header.end(), buffer.begin() + static_cast<std::ptrdiff_t>(start));
  return std::string_view(buffer).substr(start);
}

/// The tree-only snapshot whose payload is `tree_prefix` (an owner and a
/// node table) followed by an empty plan spec.
std::string frame_tree_only(std::string_view tree_prefix) {
  std::string out;
  out.reserve(kHeaderGap + tree_prefix.size() + 4);
  out.assign(kHeaderGap, '\0');
  out += tree_prefix;
  wire::put_string(out, {});
  const std::size_t start = static_cast<std::size_t>(frame_in_place(out).data() - out.data());
  out.erase(0, start);
  return out;
}

SnapshotSource source_of(const SessionState& state) {
  SnapshotSource source;
  source.tenant = state.tenant;
  source.instance = state.instance;
  source.tree = state.tree.get();
  source.plan_spec = state.plan_spec;
  source.cut = state.cut;
  source.objective_value = state.objective_value;
  source.exact = state.exact;
  source.method = state.method;
  source.requested = state.requested;
  source.dp_stats = state.has_dp_stats ? &state.dp_stats : nullptr;
  source.stats = &state.stats;
  for (const bool colour_level : {true, false}) {
    const std::vector<SessionState::CacheEntry>& entries =
        colour_level ? state.colour_cache : state.region_cache;
    std::vector<CacheEntryView>& views = colour_level ? source.colour_cache : source.region_cache;
    views.reserve(entries.size());
    for (const SessionState::CacheEntry& e : entries) views.push_back({e.key_words, &e.frontier});
  }
  return source;
}

/// Decodes a verified payload. When `tree_end` is non-null it receives the
/// payload offset where the plan spec starts: the prefix rule
/// encode_payload() reports its fallback by.
SessionState decode_payload(std::string_view payload, std::size_t* tree_end = nullptr) {
  wire::ByteReader in(payload);
  SessionState state;
  state.tenant = in.string("tenant");
  state.instance = in.string("instance");
  state.tree = decode_tree(in);
  if (tree_end != nullptr) *tree_end = payload.size() - in.remaining();
  // Parsed once, by import_state, which rejects an unknown plan.
  state.plan_spec = in.string("plan spec");
  if (!state.has_session()) {
    TS_REQUIRE(in.done(),
               "snapshot: " << in.remaining() << " trailing bytes after a tree-only state");
    return state;
  }

  const std::size_t cut = in.count("cut size", kMinCutNode);
  state.cut.reserve(cut);
  for (std::size_t i = 0; i < cut; ++i) {
    const std::uint32_t node = in.get<std::uint32_t>("cut node");
    TS_REQUIRE(node < state.tree->size(), "snapshot: cut node " << node << " is outside the "
                                                                << state.tree->size()
                                                                << "-node tree");
    state.cut.emplace_back(node);
  }
  state.method = parse_method(in.string("method"));
  state.requested = parse_method(in.string("requested method"));
  state.exact = take_flag(in, "exact flag");
  state.objective_value = in.get<double>("objective");
  state.has_dp_stats = take_flag(in, "dp_stats flag");
  if (state.has_dp_stats) {
    ParetoDpStats& dp = state.dp_stats;
    for (std::size_t* const counter :
         {&dp.max_region_frontier, &dp.max_colour_frontier, &dp.candidates_swept,
          &dp.arena_bytes, &dp.peak_frontier, &dp.minkowski_merges,
          &dp.merge_points_generated, &dp.merge_points_kept}) {
      *counter = in.get<std::uint64_t>("dp_stats counter");
    }
  }
  ResolveStats& st = state.stats;
  st.path = parse_resolve_path(in.string("resolve path"));
  for (std::size_t* const counter : {&st.step, &st.regions_total, &st.regions_reused,
                                     &st.regions_recomputed, &st.colours_total,
                                     &st.colours_reused, &st.cache_entries}) {
    *counter = in.get<std::uint64_t>("stats counter");
  }
  st.incumbent_used = take_flag(in, "incumbent flag");
  st.cold_reason = in.string("cold reason");
  state.colour_cache = decode_cache(in, /*colour_level=*/true);
  state.region_cache = decode_cache(in, /*colour_level=*/false);
  TS_REQUIRE(in.done(), "snapshot: " << in.remaining() << " trailing bytes after the caches");
  return state;
}

}  // namespace

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
  append_header(out, magic, version, payload);
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
  const std::uint64_t actual_hash = fnv1a_bytes(payload);
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

SnapshotSource snapshot_source(const ResolveSession& session) {
  const SolveReport& report = session.current();
  SnapshotSource source;
  source.tree = &session.tree();
  source.plan_spec = plan_spec(session.plan());
  source.cut = report.assignment.cut_nodes();
  source.objective_value = report.objective_value;
  source.exact = report.exact;
  source.method = report.method;
  source.requested = report.requested;
  source.dp_stats = report.stats_as<ParetoDpStats>();
  source.stats = &session.last_stats();
  source.colour_cache = session.cache_entries(/*colour_level=*/true);
  source.region_cache = session.cache_entries(/*colour_level=*/false);
  return source;
}

std::string_view encode_snapshot(const SnapshotSource& source, std::string& buffer,
                                 std::string* fallback) {
  buffer.assign(kHeaderGap, '\0');
  const std::size_t tree_end = encode_payload(buffer, source);
  if (fallback != nullptr) {
    *fallback = frame_tree_only(std::string_view(buffer).substr(kHeaderGap, tree_end - kHeaderGap));
  }
  return frame_in_place(buffer);
}

std::string encode_snapshot(const SessionState& state) {
  std::string buffer;
  const std::size_t start =
      static_cast<std::size_t>(encode_snapshot(source_of(state), buffer).data() - buffer.data());
  buffer.erase(0, start);
  return buffer;
}

SessionState decode_snapshot(std::string_view bytes) {
  return decode_payload(unframe_payload(kMagic, kVersion, bytes, "snapshot"));
}

SessionState decode_snapshot(std::string_view bytes, std::string& fallback) {
  const std::string_view payload = unframe_payload(kMagic, kVersion, bytes, "snapshot");
  std::size_t tree_end = 0;
  SessionState state = decode_payload(payload, &tree_end);
  fallback = frame_tree_only(payload.substr(0, tree_end));
  return state;
}

void write_snapshot_file(const std::string& path, const SessionState& state) {
  write_file_atomic(path, encode_snapshot(state));
}

SessionState read_snapshot_file(const std::string& path) {
  return decode_snapshot(read_file_bytes(path));
}

}  // namespace treesat
