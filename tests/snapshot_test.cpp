// The storage subsystem's correctness wall (storage/snapshot.hpp):
//
//   * round-trip byte-identity -- for every scenario-library instance and
//     for drifted sessions, export -> encode -> decode -> import rebuilds a
//     session whose optimum, cache bytes and every *future* resolve are
//     byte-identical to the never-snapshotted original;
//   * determinism -- snapshotting the same session twice yields identical
//     bytes (the property the spill tier's deterministic gauges rest on);
//   * the corruption wall -- truncation at every header byte, flipped
//     content hash, foreign magic, unsupported version, trailing garbage
//     and hash-valid-but-structurally-broken payloads are all rejected
//     with a descriptive InvalidArgument, never a crash or a half-decoded
//     state (this suite rides in ci.sh's TSan stage with the service
//     suites);
//   * the token codec and file IO edges (atomic write, missing paths).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/incremental.hpp"
#include "io/json.hpp"
#include "service/service.hpp"
#include "storage/checkpoint.hpp"
#include "storage/snapshot.hpp"
#include "tree/serialize.hpp"
#include "workload/scenarios.hpp"

namespace treesat {
namespace {

/// The two sessions must be indistinguishable: same optimum bit for bit,
/// same cache charge, same step counters.
void expect_sessions_identical(const ResolveSession& a, const ResolveSession& b) {
  const SolveReport& ra = a.current();
  const SolveReport& rb = b.current();
  ASSERT_EQ(std::memcmp(&ra.objective_value, &rb.objective_value, sizeof(double)), 0)
      << ra.objective_value << " vs " << rb.objective_value;
  EXPECT_EQ(ra.assignment.cut_nodes(), rb.assignment.cut_nodes());
  EXPECT_EQ(ra.exact, rb.exact);
  EXPECT_EQ(ra.method, rb.method);
  EXPECT_EQ(a.cached_bytes(), b.cached_bytes());
  const ResolveStats& sa = a.last_stats();
  const ResolveStats& sb = b.last_stats();
  EXPECT_EQ(sa.path, sb.path);
  EXPECT_EQ(sa.step, sb.step);
  EXPECT_EQ(sa.regions_total, sb.regions_total);
  EXPECT_EQ(sa.regions_reused, sb.regions_reused);
  EXPECT_EQ(sa.regions_recomputed, sb.regions_recomputed);
  EXPECT_EQ(sa.colours_total, sb.colours_total);
  EXPECT_EQ(sa.colours_reused, sb.colours_reused);
  EXPECT_EQ(sa.cache_entries, sb.cache_entries);
  EXPECT_EQ(sa.cold_reason, sb.cold_reason);
}

/// A deterministic drift script that works on any scenario tree (every
/// platform in the library has a satellite 0).
std::vector<Perturbation> drift_script() {
  std::vector<Perturbation> script;
  script.push_back(Perturbation::global_drift(1.05, 1.0, 1.0));
  script.push_back(
      Perturbation::satellite_drift(SatelliteId{std::size_t{0}}, 1.2, 0.9, 1.1));
  script.push_back(Perturbation::global_drift(0.97, 1.02, 1.0));
  script.push_back(
      Perturbation::satellite_drift(SatelliteId{std::size_t{0}}, 0.8, 1.1, 0.95));
  return script;
}

TEST(SnapshotRoundTrip, EveryScenarioInstanceSurvivesSaveLoad) {
  for (const Scenario& scenario : standard_scenarios()) {
    SCOPED_TRACE(scenario.name);
    const CruTree tree = scenario.workload.lower(scenario.platform);

    ResolveSession original{CruTree(tree)};
    const std::string bytes = encode_snapshot(original.export_state());
    ResolveSession restored = ResolveSession::import_state(decode_snapshot(bytes));
    expect_sessions_identical(original, restored);

    // Re-exporting the restored session reproduces the snapshot exactly:
    // save/load is idempotent at the byte level.
    EXPECT_EQ(encode_snapshot(restored.export_state()), bytes);

    // Every future resolve must be identical too -- the restored session
    // carries the full warm state, not just the answer.
    for (const Perturbation& p : drift_script()) {
      static_cast<void>(original.resolve(p));
      static_cast<void>(restored.resolve(p));
      expect_sessions_identical(original, restored);
    }
  }
}

TEST(SnapshotRoundTrip, DriftedSessionSurvivesSaveLoad) {
  // Snapshot *mid-history*: a session that has already warmed its caches
  // through several perturbations (the state a spill actually persists).
  const Scenario scenario = epilepsy_scenario();
  ResolveSession original{scenario.workload.lower(scenario.platform)};
  for (const Perturbation& p : drift_script()) static_cast<void>(original.resolve(p));

  const SessionState state = original.export_state();
  EXPECT_TRUE(state.has_session());
  EXPECT_GT(state.colour_cache.size() + state.region_cache.size(), 0u)
      << "a drifted session must carry cache entries or the test is vacuous";

  ResolveSession restored =
      ResolveSession::import_state(decode_snapshot(encode_snapshot(state)));
  expect_sessions_identical(original, restored);
  for (const Perturbation& p : drift_script()) {
    static_cast<void>(original.resolve(p));
    static_cast<void>(restored.resolve(p));
    expect_sessions_identical(original, restored);
  }
}

TEST(SnapshotRoundTrip, SnapshotBytesAreDeterministic) {
  const Scenario scenario = epilepsy_scenario();
  ResolveSession session{scenario.workload.lower(scenario.platform)};
  static_cast<void>(session.resolve(Perturbation::global_drift(1.1, 1.0, 1.0)));
  // Same session, two exports: identical bytes (cache entries are emitted
  // sorted, wall clocks zeroed -- unordered_map order must not leak).
  EXPECT_EQ(encode_snapshot(session.export_state()),
            encode_snapshot(session.export_state()));
}

TEST(SnapshotRoundTrip, DriftedSnapshotBytesArePinned) {
  // The other round-trip tests compare the encoder with itself, so a change
  // to how any field is written (tree costs, the objective, hex key words
  // and point coordinates, cut deltas, colour region indices, counts,
  // escaped owner tokens) would pass them. This pins one drifted session's
  // exact bytes by length and content hash: the snapshot format is a file
  // format, and its bytes only move with a version bump (recorded for v2).
  const Scenario scenario = epilepsy_scenario();
  ResolveSession session{scenario.workload.lower(scenario.platform)};
  for (const Perturbation& p : drift_script()) static_cast<void>(session.resolve(p));
  SessionState state = session.export_state();
  state.tenant = "tenant a";
  state.instance = "w/0";
  const std::string bytes = encode_snapshot(state);
  EXPECT_EQ(bytes.size(), 2661u);
  EXPECT_EQ(fnv1a64(bytes), 0xb15b27df240782f0ULL);
}

TEST(SnapshotRoundTrip, TreeOnlyStateRoundTrips) {
  // A submitted-but-never-solved instance spills as a tree-only snapshot.
  SessionState state;
  state.tree_text = to_text(paper_running_example());
  state.tenant = "tenant a";  // space: exercises the token codec in-band
  state.instance = "w/0";
  const SessionState back = decode_snapshot(encode_snapshot(state));
  EXPECT_FALSE(back.has_session());
  EXPECT_EQ(back.tree_text, state.tree_text);
  EXPECT_EQ(back.tenant, state.tenant);
  EXPECT_EQ(back.instance, state.instance);
  EXPECT_TRUE(back.cut.empty());
  EXPECT_TRUE(back.colour_cache.empty() && back.region_cache.empty());
}

TEST(SnapshotTokens, CodecIsInjectiveAndStrict) {
  EXPECT_EQ(encode_token(""), "%");
  EXPECT_EQ(decode_token("%"), "");
  EXPECT_EQ(encode_token("plain-Token_0.9"), "plain-Token_0.9");
  for (const char* raw_cstr : {"a b/c%d", "\n\t", "100%"}) {
    const std::string raw = raw_cstr;
    const std::string enc = encode_token(raw);
    EXPECT_EQ(enc.find(' '), std::string::npos) << enc;
    EXPECT_EQ(decode_token(enc), raw);
  }
  EXPECT_EQ(snapshot_file_name("t 0", "w0"), "t%200@w0.tss");

  EXPECT_THROW(static_cast<void>(decode_token("a b")), InvalidArgument);   // raw space
  EXPECT_THROW(static_cast<void>(decode_token("ab%")), InvalidArgument);   // dangling %
  EXPECT_THROW(static_cast<void>(decode_token("%G1")), InvalidArgument);   // bad hex
  EXPECT_THROW(static_cast<void>(decode_token("%2f")), InvalidArgument);   // lowercase
  EXPECT_THROW(static_cast<void>(decode_token("")), InvalidArgument);      // no spelling
}

TEST(SnapshotCorruption, EveryHeaderTruncationIsRejected) {
  ResolveSession session{paper_running_example()};
  const std::string bytes = encode_snapshot(session.export_state());

  // The header is the first three lines; every proper prefix of the file up
  // to (and past) it must be rejected -- including the empty file.
  const std::size_t header_end = bytes.find('\n', bytes.find('\n', bytes.find('\n') + 1) + 1) + 1;
  ASSERT_GT(header_end, 0u);
  for (std::size_t n = 0; n < header_end; ++n) {
    EXPECT_THROW(static_cast<void>(decode_snapshot(bytes.substr(0, n))), InvalidArgument)
        << "prefix of " << n << " bytes decoded";
  }
  // Truncated payload (one byte short) and over-long file (trailing junk).
  EXPECT_THROW(static_cast<void>(decode_snapshot(bytes.substr(0, bytes.size() - 1))),
               InvalidArgument);
  EXPECT_THROW(static_cast<void>(decode_snapshot(bytes + "x")), InvalidArgument);
}

TEST(SnapshotCorruption, HashVersionAndMagicAreVerified) {
  ResolveSession session{paper_running_example()};
  const std::string bytes = encode_snapshot(session.export_state());

  // Flip one digit of the content hash: loud mismatch.
  {
    std::string bad = bytes;
    const std::size_t pos = bad.find("hash ") + 5;
    bad[pos] = bad[pos] == '0' ? '1' : '0';
    try {
      static_cast<void>(decode_snapshot(bad));
      FAIL() << "hash mismatch decoded";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("hash"), std::string::npos) << e.what();
    }
  }
  // Flip one payload byte instead: the *hash* catches it.
  {
    std::string bad = bytes;
    bad[bytes.size() - 2] ^= 1;
    EXPECT_THROW(static_cast<void>(decode_snapshot(bad)), InvalidArgument);
  }
  // Unsupported version.
  {
    std::string bad = bytes;
    bad.replace(bad.find(" v2\n"), 4, " v9\n");
    try {
      static_cast<void>(decode_snapshot(bad));
      FAIL() << "foreign version decoded";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
    }
  }
  // Foreign magic (a checkpoint manifest is not a session snapshot).
  {
    std::string bad = bytes;
    bad.replace(0, std::strlen("treesat_snapshot"), "treesat_manifest");
    EXPECT_THROW(static_cast<void>(decode_snapshot(bad)), InvalidArgument);
  }
}

TEST(SnapshotCorruption, HashValidButBrokenPayloadsAreRejected) {
  // An attacker (or a bug) can re-frame arbitrary payloads with a correct
  // hash; structural validation must still hold the line.
  ResolveSession session{paper_running_example()};
  const SessionState good = session.export_state();

  {
    SessionState bad = good;  // cut node outside the encoded tree
    bad.cut.push_back(CruId{std::size_t{9999}});
    EXPECT_THROW(static_cast<void>(decode_snapshot(encode_snapshot(bad))),
                 InvalidArgument);
  }
  {
    SessionState bad = good;  // duplicate cache key
    ASSERT_FALSE(bad.region_cache.empty());
    bad.region_cache.push_back(bad.region_cache.front());
    EXPECT_THROW(static_cast<void>(ResolveSession::import_state(
                     decode_snapshot(encode_snapshot(bad)))),
                 InvalidArgument);
  }
  // Raw payload tampering, re-framed with a *correct* hash: the line-level
  // parser rejects it.
  const std::string bytes = encode_snapshot(good);
  const std::string_view payload =
      unframe_payload("treesat_snapshot", "v2", bytes, "snapshot");
  {
    std::string broken(payload);
    broken.replace(broken.find("stats "), 6, "stats x");
    EXPECT_THROW(static_cast<void>(decode_snapshot(
                     frame_payload("treesat_snapshot", "v2", broken))),
                 InvalidArgument);
  }
  {
    std::string broken(payload);  // missing end sentinel
    broken.resize(broken.rfind("end\n"));
    EXPECT_THROW(static_cast<void>(decode_snapshot(
                     frame_payload("treesat_snapshot", "v2", broken))),
                 InvalidArgument);
  }
}

TEST(SnapshotCorruption, CachedFrontiersMustBeFiniteAndLoadSorted) {
  // Cached frontiers go straight into the fold engine's merge, which needs
  // finite coordinates and loads in non-decreasing order; a hash-valid
  // snapshot that breaks either is rejected at import, in both caches,
  // instead of being adopted and reused by the next warm resolve.
  ResolveSession session{paper_running_example()};
  const SessionState good = session.export_state();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  using Cache = std::vector<SessionState::CacheEntry> SessionState::*;
  for (const Cache cache : {&SessionState::colour_cache, &SessionState::region_cache}) {
    ASSERT_FALSE((good.*cache).empty());
    // The widest entry, so the unsorted row has two points to swap.
    std::size_t widest = 0;
    for (std::size_t i = 0; i < (good.*cache).size(); ++i) {
      if ((good.*cache)[i].frontier.size() > (good.*cache)[widest].frontier.size()) widest = i;
    }
    ASSERT_GE((good.*cache)[widest].frontier.size(), 2u);
    using Frontier = FrontierEntry&;
    const auto rejected = [&](const char* what, auto&& damage) {
      SessionState bad = good;
      damage((bad.*cache)[widest].frontier);
      EXPECT_THROW(static_cast<void>(ResolveSession::import_state(
                       decode_snapshot(encode_snapshot(bad)))),
                   InvalidArgument)
          << what;
    };
    rejected("NaN load", [&](Frontier f) { f.load[1] = kNaN; });
    rejected("-inf host", [&](Frontier f) { f.host[0] = -kInf; });
    rejected("+inf load", [&](Frontier f) { f.load.back() = kInf; });
    rejected("NaN host", [&](Frontier f) { f.host[0] = kNaN; });
    rejected("unsorted loads", [&](Frontier f) { std::swap(f.load[0], f.load[1]); });
    rejected("empty frontier", [&](Frontier f) {
      const bool region = !f.cut_offsets.empty();
      f = FrontierEntry{};
      if (region) f.cut_offsets.push_back(0);
    });
  }
}

TEST(SnapshotCorruption, DeclaredCountsAreBoundedByThePayload) {
  // Counts size the decoder's storage, so a count the rest of the payload
  // cannot hold is rejected before it reaches an allocation -- not
  // answered with bad_alloc, length_error or a sanitizer abort.
  ResolveSession session{paper_running_example()};
  const std::string bytes = encode_snapshot(session.export_state());
  const std::string payload(unframe_payload("treesat_snapshot", "v2", bytes, "snapshot"));
  const auto rejected = [](const std::string& broken) {
    EXPECT_THROW(static_cast<void>(decode_snapshot(
                     frame_payload("treesat_snapshot", "v2", broken))),
                 InvalidArgument);
  };
  {
    std::string broken = payload;  // 10^13 colour-cache entries
    const std::size_t at = broken.find("colour_cache ");
    ASSERT_NE(at, std::string::npos);
    const std::size_t end = broken.find('\n', at);
    broken.replace(at, end - at, "colour_cache 10000000000000");
    rejected(broken);
  }
  {
    std::string broken = payload;  // 4e18 points in the first cache entry
    const std::size_t at = broken.find("\nentry ", broken.find("colour_cache "));
    ASSERT_NE(at, std::string::npos);
    const std::size_t end = broken.find('\n', at + 1);
    const std::size_t last = broken.rfind(' ', end);
    broken.replace(last + 1, end - last - 1, "4000000000000000000");
    rejected(broken);
  }
  {
    std::string broken = payload;  // key word count past the end of its line
    const std::size_t at = broken.find("\nentry ", broken.find("colour_cache "));
    const std::size_t words_end = broken.find(' ', at + 7);
    broken.replace(at + 7, words_end - at - 7, "99999999999");
    rejected(broken);
  }
}

/// A drifted session's state. The running example's colour B has two
/// regions, so its caches hold a colour entry with two indices per point
/// and every v2 entry-form row below has something to damage.
SessionState drifted_state() {
  ResolveSession session{paper_running_example()};
  for (const Perturbation& p : drift_script()) static_cast<void>(session.resolve(p));
  return session.export_state();
}

/// The first region key a colour key concatenates (see solve_warm_dp: each
/// region is [node count][5 words per node]).
std::vector<std::uint64_t> first_region_key(const SessionState::CacheEntry& colour) {
  const std::vector<std::uint64_t>& key = colour.key_words;
  return {key.begin() + 1, key.begin() + 1 + 5 * static_cast<long>(key[0])};
}

/// The first colour entry whose key concatenates at least two regions.
std::size_t multi_region_colour(const SessionState& state) {
  for (std::size_t i = 0; i < state.colour_cache.size(); ++i) {
    const FrontierEntry& f = state.colour_cache[i].frontier;
    if (f.region_index.size() >= 2 * f.size()) return i;
  }
  ADD_FAILURE() << "no colour entry of two or more regions";
  return 0;
}

/// `read` must throw InvalidArgument whose message contains `expected`.
template <typename Read>
void expect_rejected(Read&& read, const std::string& expected) {
  try {
    read();
    ADD_FAILURE() << "accepted; expected a rejection containing '" << expected << "'";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos) << e.what();
  }
}

/// import_state must reject `bad` -- after an encode/decode round trip
/// when `through_codec`, straight from the struct otherwise (states whose
/// damage the encoder itself refuses to write).
void expect_import_rejected(const SessionState& bad, const std::string& expected,
                            bool through_codec) {
  expect_rejected(
      [&] {
        static_cast<void>(ResolveSession::import_state(
            through_codec ? decode_snapshot(encode_snapshot(bad)) : bad));
      },
      expected);
}

/// decode_snapshot must reject a hash-valid v2 payload.
void expect_decode_rejected(const std::string& payload, const std::string& expected) {
  expect_rejected(
      [&] {
        static_cast<void>(decode_snapshot(frame_payload("treesat_snapshot", "v2", payload)));
      },
      expected);
}

TEST(SnapshotCorruption, V2EntryFormIsValidated) {
  // The v2 entry form is rebuilt into cuts by indexing: a colour point's
  // region indices select region points, a region point's CSR offsets
  // select cut positions, and those positions select node ids. Every index
  // is bounded at import, so a hash-valid but inconsistent snapshot is a
  // typed InvalidArgument -- never an out-of-bounds read (this suite runs
  // under ASan).
  const SessionState good = drifted_state();
  ASSERT_FALSE(good.colour_cache.empty());
  ASSERT_FALSE(good.region_cache.empty());
  const std::size_t colour = multi_region_colour(good);
  const std::size_t regions =
      good.colour_cache[colour].frontier.region_index.size() /
      good.colour_cache[colour].frontier.size();
  // The undamaged state imports.
  static_cast<void>(ResolveSession::import_state(decode_snapshot(encode_snapshot(good))));

  {
    SessionState bad = good;  // a colour index at its region's frontier width
    const std::vector<std::uint64_t> first = first_region_key(bad.colour_cache[colour]);
    std::size_t width = 0;
    for (const SessionState::CacheEntry& e : bad.region_cache) {
      if (e.key_words == first) width = e.frontier.size();
    }
    ASSERT_GT(width, 0u);
    bad.colour_cache[colour].frontier.region_index[0] = static_cast<std::uint32_t>(width);
    expect_import_rejected(bad, "outside its region's", /*through_codec=*/true);
  }
  {
    SessionState bad = good;  // a colour entry whose region entry is absent
    const std::vector<std::uint64_t> first = first_region_key(bad.colour_cache[colour]);
    const auto erased = std::erase_if(bad.region_cache, [&](const SessionState::CacheEntry& e) {
      return e.key_words == first;
    });
    ASSERT_EQ(erased, 1u);
    expect_import_rejected(bad, "has no region entry", /*through_codec=*/true);
  }
  {
    SessionState bad = good;  // index rows one longer than the key's regions
    FrontierEntry& f = bad.colour_cache[colour].frontier;
    std::vector<std::uint32_t> wider;
    for (std::size_t i = 0; i < f.size(); ++i) {
      wider.insert(wider.end(), f.region_index.begin() + static_cast<long>(i * regions),
                   f.region_index.begin() + static_cast<long>((i + 1) * regions));
      wider.push_back(0);
    }
    f.region_index = wider;
    expect_import_rejected(bad, "index rows", /*through_codec=*/true);
    f.region_index.resize(f.size() * regions - 1);  // and one index short, directly
    expect_import_rejected(bad, "index rows", /*through_codec=*/false);
  }
  {
    // One colour point line of different length from its entry's others:
    // the decoder rejects it before import ever splits the rows.
    const std::string bytes = encode_snapshot(good);
    std::string broken(unframe_payload("treesat_snapshot", "v2", bytes, "snapshot"));
    const std::size_t entry = broken.find("\nentry ", broken.find("colour_cache "));
    const std::size_t second_point = broken.find("\npoint ", broken.find("\npoint ", entry) + 1);
    ASSERT_NE(second_point, std::string::npos);
    broken.insert(broken.find('\n', second_point + 1), " 0");
    expect_decode_rejected(broken, "its entry's first");
  }
  std::size_t region = 0;  // a region entry with at least two points
  while (good.region_cache[region].frontier.size() < 2) ++region;
  {
    SessionState bad = good;  // non-monotone CSR offsets
    std::vector<std::uint32_t>& offsets = bad.region_cache[region].frontier.cut_offsets;
    offsets[1] = offsets.back() + 1;
    expect_import_rejected(bad, "not monotone", /*through_codec=*/false);
  }
  {
    SessionState bad = good;  // offsets overflowing their positions
    bad.region_cache[region].frontier.cut_offsets.back() = UINT32_MAX;
    expect_import_rejected(bad, "do not span", /*through_codec=*/false);
  }
  {
    // A cut position past 32 bits in the payload: the decoder rejects it
    // rather than truncating it onto a real position.
    const std::string bytes = encode_snapshot(good);
    std::string broken(unframe_payload("treesat_snapshot", "v2", bytes, "snapshot"));
    const std::size_t point = broken.find("\npoint ", broken.find("region_cache "));
    ASSERT_NE(point, std::string::npos);
    const std::size_t line_end = broken.find('\n', point + 1);
    const std::size_t last = broken.rfind(' ', line_end);
    broken.replace(last + 1, line_end - last - 1, "4294967296");
    expect_decode_rejected(broken, "overflows 32 bits");
  }
  {
    SessionState bad = good;  // a cut position outside its key
    SessionState::CacheEntry& e = bad.region_cache[region];
    e.frontier.cut_positions.back() = static_cast<std::uint32_t>(e.key_words.size() / 5 + 3);
    expect_import_rejected(bad, "outside its key's", /*through_codec=*/true);
  }
}

TEST(SnapshotCorruption, VersionOneFilesAreRejectedByTheirVersion) {
  // v1 snapshots carried per-entry stamps, an attempt line and a cut per
  // cached colour point; v1 manifests recorded those snapshots' byte sizes.
  // Neither is read: both fail on their version line, saying so.
  const std::string version = "unsupported version 'v1'";
  ResolveSession session{paper_running_example()};
  const std::string bytes = encode_snapshot(session.export_state());
  const std::string payload(unframe_payload("treesat_snapshot", "v2", bytes, "snapshot"));
  expect_rejected(
      [&] { static_cast<void>(decode_snapshot(frame_payload("treesat_snapshot", "v1", payload))); },
      version);

  const std::string dir = ::testing::TempDir() + "/snapshot_test_v1_manifest";
  std::filesystem::remove_all(dir);
  {
    SolverService service;
    static_cast<void>(service.handle_line(
        "{\"op\":\"submit\",\"tenant\":\"t0\",\"instance\":\"w0\",\"tree\":\"" +
        json_escape(to_text(paper_running_example())) + "\"}"));
    ASSERT_NE(service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}")
                  .find("\"ok\":true"),
              std::string::npos);
    service.checkpoint_to(dir);
  }
  const std::string manifest = dir + "/MANIFEST.tsc";
  const std::string current = read_file_bytes(manifest);
  static_cast<void>(read_checkpoint(dir, 1, 0, "", 0));  // the v2 manifest restores
  write_file_atomic(manifest,
                    frame_payload("treesat_checkpoint", "v1",
                                  unframe_payload("treesat_checkpoint", "v2", current,
                                                  "checkpoint")));
  expect_rejected([&] { static_cast<void>(read_checkpoint(dir, 1, 0, "", 0)); }, version);
}

TEST(SnapshotFiles, AtomicWriteAndStrictRead) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/snapshot_test_roundtrip.tss";
  ResolveSession session{paper_running_example()};
  static_cast<void>(session.resolve(Perturbation::global_drift(1.2, 1.0, 1.0)));

  write_snapshot_file(path, session.export_state());
  ResolveSession restored = ResolveSession::import_state(read_snapshot_file(path));
  expect_sessions_identical(session, restored);

  // Zero-length file on disk: InvalidArgument (readable but not a snapshot).
  const std::string empty_path = dir + "/snapshot_test_empty.tss";
  write_file_atomic(empty_path, "");
  EXPECT_THROW(static_cast<void>(read_snapshot_file(empty_path)), InvalidArgument);

  // Missing file / unwritable directory: ResourceLimit, not a parse error.
  EXPECT_THROW(static_cast<void>(read_snapshot_file(dir + "/snapshot_test_absent.tss")),
               ResourceLimit);
  EXPECT_THROW(write_snapshot_file(dir + "/no_such_subdir/x.tss", session.export_state()),
               ResourceLimit);
}

}  // namespace
}  // namespace treesat
