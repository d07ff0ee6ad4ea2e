// Seeded mutation fuzzing of the v3 snapshot decoder and the import behind
// it (storage/snapshot.hpp, core/incremental.hpp, service/session_store.hpp),
// and of the v4 checkpoint manifest reader (storage/checkpoint.hpp), which
// a client reaches through the restore op.
//
// Snapshot seeds are v3 snapshots of every scenario-library instance, of a
// drifted epilepsy session and of a tree-only state. Each seed yields a
// fixed set of mutants from a fixed RNG seed: bit flips, bytes set to 0x00
// or 0xFF, a truncation at every section boundary, every u32 count or
// length set to 0xFFFFFFFF, and every section spliced in from every other
// seed. Each mutant is re-framed with a correct hash, so it reaches the
// payload decoder, and must then either decode and import or throw
// InvalidArgument.
//
// The manifest seed is a checkpoint holding resident rows, spilled rows and
// two tenants. Its mutants are bit flips, bytes set to 0x00 or 0xFF, a
// truncation at every byte and a u32 0xFFFFFFFF written at every offset,
// each re-framed with a correct hash; read_checkpoint must return or throw
// InvalidArgument or ResourceLimit. The same seed's spilled file takes the
// same four kinds of mutant, each re-framed with a correct hash and its
// manifest row's byte count kept in step. Restore checks a spilled row only
// up to its node table, so each mutant must restore, and its row is either
// skipped there or answers a solve ok: warm when its whole payload decodes
// and imports, else cold after one counted spill fault.
//
// Any other exception fails the test: a LogicError, a length_error, or a
// bad_alloc from an allocation a hostile count sized. ci.sh runs this suite
// under UBSan, and under ASan with a max_allocation_size_mb cap, where an
// oversized allocation is an error report that aborts the run even on a
// host with the memory to satisfy it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/incremental.hpp"
#include "io/json.hpp"
#include "service/service.hpp"
#include "service/session_store.hpp"
#include "snapshot_layout.hpp"
#include "storage/checkpoint.hpp"
#include "storage/snapshot.hpp"
#include "storage/wire.hpp"
#include "tree/serialize.hpp"
#include "workload/scenarios.hpp"

namespace treesat {
namespace {

using test_support::SnapshotLayout;
using test_support::snapshot_layout;

constexpr std::size_t kBitFlips = 1024;
constexpr std::size_t kByteSets = 512;

struct Seed {
  std::string name;
  std::string payload;
  SnapshotLayout layout;
};

Seed make_seed(std::string name, SessionState state) {
  state.tenant = "tenant-" + name;
  state.instance = "w0";
  const std::string bytes = encode_snapshot(state);
  std::string payload(unframe_payload("treesat_snapshot", "v3", bytes, "snapshot"));
  SnapshotLayout layout = snapshot_layout(payload);
  return {std::move(name), std::move(payload), std::move(layout)};
}

std::vector<Seed> seeds() {
  std::vector<Seed> out;
  for (const Scenario& scenario : standard_scenarios()) {
    const ResolveSession session{scenario.workload.lower(scenario.platform)};
    out.push_back(make_seed(scenario.name, session.export_state()));
  }
  const Scenario epilepsy = epilepsy_scenario();
  ResolveSession drifted{epilepsy.workload.lower(epilepsy.platform)};
  for (const Perturbation& p :
       {Perturbation::global_drift(1.05, 1.0, 1.0),
        Perturbation::satellite_drift(SatelliteId{std::size_t{0}}, 1.2, 0.9, 1.1),
        Perturbation::global_drift(0.97, 1.02, 1.0)}) {
    static_cast<void>(drifted.resolve(p));
  }
  out.push_back(make_seed("drifted-epilepsy", drifted.export_state()));
  SessionState tree_only;
  tree_only.tree = std::make_shared<const CruTree>(paper_running_example());
  out.push_back(make_seed("tree-only", std::move(tree_only)));
  return out;
}

/// Bytes [begin of `section`, begin of the section after it).
std::pair<std::size_t, std::size_t> section_span(const SnapshotLayout& layout,
                                                 const std::string& section) {
  for (std::size_t i = 0; i + 1 < layout.sections.size(); ++i) {
    if (layout.sections[i].name == section) {
      return {layout.sections[i].offset, layout.sections[i + 1].offset};
    }
  }
  return {0, 0};
}

struct Tally {
  std::size_t mutants = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

/// Decodes and imports one mutant payload: accepted, or rejected with
/// InvalidArgument. Anything else is a failure naming the mutant.
void run_mutant(const std::string& payload, const std::string& what, Tally& tally) {
  ++tally.mutants;
  try {
    const SessionState state =
        decode_snapshot(frame_payload("treesat_snapshot", "v3", payload));
    static_cast<void>(session_entry_from_state(state));
    ++tally.accepted;
  } catch (const InvalidArgument&) {
    ++tally.rejected;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": threw " << typeid(e).name() << " instead of InvalidArgument: "
                  << e.what();
  }
}

TEST(FuzzSnapshot, EveryMutantDecodesAndImportsOrIsRejected) {
  const std::vector<Seed> all = seeds();
  Tally tally;
  Rng rng(0xF022);
  for (const Seed& seed : all) {
    SCOPED_TRACE(seed.name);
    const std::string& base = seed.payload;
    Tally unmutated;
    run_mutant(base, "unmutated", unmutated);
    ASSERT_EQ(unmutated.accepted, 1u) << "an unmutated seed must import";

    for (std::size_t i = 0; i < kBitFlips; ++i) {
      std::string m = base;
      const std::size_t at = rng.index(m.size());
      const int bit = static_cast<int>(rng.index(8));
      m[at] = static_cast<char>(m[at] ^ (1 << bit));
      run_mutant(m, "bit " + std::to_string(bit) + " of byte " + std::to_string(at), tally);
    }
    for (std::size_t i = 0; i < kByteSets; ++i) {
      std::string m = base;
      const std::size_t at = rng.index(m.size());
      const char value = rng.bernoulli(0.5) ? '\x00' : '\xFF';
      m[at] = value;
      run_mutant(m, "byte " + std::to_string(at) + " set to " +
                        std::to_string(static_cast<unsigned char>(value)),
                 tally);
    }
    for (const SnapshotLayout::Field& section : seed.layout.sections) {
      run_mutant(base.substr(0, section.offset), "truncated at " + section.name, tally);
    }
    for (const SnapshotLayout::Field& count : seed.layout.counts) {
      run_mutant(test_support::with_u32(base, count.offset, 0xFFFFFFFFu),
                 "count " + count.name + " at " + std::to_string(count.offset) +
                     " set to 0xFFFFFFFF",
                 tally);
    }
    for (const Seed& donor : all) {
      if (&donor == &seed) continue;
      for (std::size_t i = 0; i + 1 < seed.layout.sections.size(); ++i) {
        const std::string& name = seed.layout.sections[i].name;
        const auto [begin, end] = section_span(seed.layout, name);
        const auto [donor_begin, donor_end] = section_span(donor.layout, name);
        if (donor_end == donor_begin) continue;  // the donor has no such section
        run_mutant(base.substr(0, begin) +
                       donor.payload.substr(donor_begin, donor_end - donor_begin) +
                       base.substr(end),
                   name + " spliced in from " + donor.name, tally);
      }
    }
  }
  // Neither half may be vacuous: most single-bit damage to a frontier
  // double still imports, and every count set to 0xFFFFFFFF is rejected.
  EXPECT_GT(tally.accepted, tally.mutants / 10);
  EXPECT_GT(tally.rejected, tally.mutants / 10);
  std::cout << "fuzz_snapshot: " << tally.mutants << " mutants, " << tally.accepted
            << " imported, " << tally.rejected << " rejected\n";
}

/// A checkpoint directory with two resident rows, one spilled row and two
/// tenants; returns its manifest payload.
std::string checkpoint_seed(const std::string& dir, const std::string& spill) {
  SolverService service(parse_service_config("spill_dir=" + spill));
  const std::string tree = json_escape(to_text(paper_running_example()));
  for (const char* owner : {R"("tenant":"t0","instance":"w0")", R"("tenant":"t0","instance":"w1")",
                            R"("tenant":"t1","instance":"w0")"}) {
    static_cast<void>(service.handle_line(std::string(R"({"op":"submit",)") + owner +
                                          R"(,"tree":")" + tree + R"("})"));
    static_cast<void>(service.handle_line(std::string(R"({"op":"solve",)") + owner + "}"));
  }
  static_cast<void>(service.handle_line(R"({"op":"evict","tenant":"t0","instance":"w1"})"));
  service.checkpoint_to(dir);
  const RestoredService restored = read_checkpoint(dir, 1, 0, spill, 0);
  EXPECT_EQ(restored.store.entries(), 2u);
  EXPECT_EQ(restored.store.spill_entries(), 1u);
  EXPECT_EQ(restored.telemetry.tenants.size(), 2u);
  return std::string(unframe_payload("treesat_checkpoint", "v4",
                                     read_file_bytes(dir + "/MANIFEST.tsc"), "checkpoint"));
}

TEST(FuzzSnapshot, EveryManifestMutantRestoresOrIsRejected) {
  const std::string dir = ::testing::TempDir() + "/fuzz_manifest_ckpt";
  const std::string spill = ::testing::TempDir() + "/fuzz_manifest_spill";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(spill);
  const std::string base = checkpoint_seed(dir, spill);
  ASSERT_FALSE(base.empty());

  Tally tally;
  const auto run = [&](const std::string& payload, const std::string& what) {
    ++tally.mutants;
    write_file_atomic(dir + "/MANIFEST.tsc", frame_payload("treesat_checkpoint", "v4", payload));
    try {
      static_cast<void>(read_checkpoint(dir, 1, 0, spill, 0));
      ++tally.accepted;
    } catch (const InvalidArgument&) {
      ++tally.rejected;
    } catch (const ResourceLimit&) {
      ++tally.rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": threw " << typeid(e).name()
                    << " instead of InvalidArgument or ResourceLimit: " << e.what();
    }
  };
  Rng rng(0xC4EC);
  for (std::size_t i = 0; i < kBitFlips / 2; ++i) {
    std::string m = base;
    const std::size_t at = rng.index(m.size());
    const int bit = static_cast<int>(rng.index(8));
    m[at] = static_cast<char>(m[at] ^ (1 << bit));
    run(m, "bit " + std::to_string(bit) + " of byte " + std::to_string(at));
  }
  for (std::size_t i = 0; i < kByteSets / 2; ++i) {
    std::string m = base;
    const std::size_t at = rng.index(m.size());
    m[at] = rng.bernoulli(0.5) ? '\x00' : '\xFF';
    run(m, "byte " + std::to_string(at) + " set to " +
               std::to_string(static_cast<unsigned char>(m[at])));
  }
  for (std::size_t at = 0; at < base.size(); ++at) {
    run(base.substr(0, at), "truncated at " + std::to_string(at));
  }
  for (std::size_t at = 0; at + 4 <= base.size(); ++at) {
    run(test_support::with_u32(base, at, 0xFFFFFFFFu),
        "u32 at " + std::to_string(at) + " set to 0xFFFFFFFF");
  }
  // Counter damage restores; count, length and truncation damage does not.
  EXPECT_GT(tally.accepted, tally.mutants / 10);
  EXPECT_GT(tally.rejected, tally.mutants / 10);
  std::cout << "fuzz_manifest: " << tally.mutants << " mutants, " << tally.accepted
            << " restored, " << tally.rejected << " rejected\n";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(spill);
}

/// Offset of the byte count of a manifest's only spilled row: past next_id,
/// the clock, eight counters, the resident rows and the row's owner and stamp.
std::size_t spilled_row_bytes_offset(std::string_view manifest) {
  wire::ByteReader in(manifest);
  for (int i = 0; i < 10; ++i) static_cast<void>(in.get<std::uint64_t>("counter"));
  const auto skip_owner_and_stamp = [&in] {
    static_cast<void>(in.string("tenant"));
    static_cast<void>(in.string("instance"));
    static_cast<void>(in.get<std::uint64_t>("stamp"));
  };
  for (std::uint32_t rows = in.get<std::uint32_t>("resident rows"); rows > 0; --rows) {
    skip_owner_and_stamp();
    static_cast<void>(in.get<std::uint64_t>("bytes"));
  }
  EXPECT_EQ(in.get<std::uint32_t>("spilled rows"), 1u);
  skip_owner_and_stamp();
  return manifest.size() - in.remaining();
}

/// How a mutant spilled row came back: skipped at restore, reloaded warm,
/// or reloaded cold from its fallback after a counted spill fault.
struct SpilledTally {
  std::size_t mutants = 0;
  std::size_t skipped = 0;
  std::size_t warm = 0;
  std::size_t cold = 0;
};

TEST(FuzzSnapshot, EverySpilledRowMutantRestoresAndAnswers) {
  const std::string dir = ::testing::TempDir() + "/fuzz_spilled_ckpt";
  const std::string spill = ::testing::TempDir() + "/fuzz_spilled_spill";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(spill);
  const std::string manifest = checkpoint_seed(dir, spill);
  ASSERT_FALSE(manifest.empty());
  const std::string file = dir + "/spilled/" + snapshot_file_name("t0", "w1");
  const std::string base(snapshot_payload(read_file_bytes(file)));
  const std::size_t bytes_at = spilled_row_bytes_offset(manifest);
  const std::string solve = R"({"op":"solve","tenant":"t0","instance":"w1"})";

  SpilledTally tally;
  const auto run = [&](const std::string& payload, const std::string& what) {
    SCOPED_TRACE(what);
    ++tally.mutants;
    const std::string bytes = frame_payload("treesat_snapshot", "v3", payload);
    write_file_atomic(file, bytes);
    std::string row = manifest;
    const std::uint64_t size = bytes.size();
    std::memcpy(row.data() + bytes_at, &size, sizeof(size));
    write_file_atomic(dir + "/MANIFEST.tsc", frame_payload("treesat_checkpoint", "v4", row));

    // What restore and the reload will find, decided here with only
    // InvalidArgument allowed: the service catches everything a row throws,
    // which would hide a bad_alloc from a hostile count.
    bool adoptable = false;
    bool imports = false;
    try {
      std::string fallback;
      const SessionState owner = decode_snapshot_prefix(bytes, fallback);
      adoptable = owner.tenant == "t0" && owner.instance == "w1";
      static_cast<void>(session_entry_from_state(decode_snapshot(bytes)));
      imports = adoptable;
    } catch (const InvalidArgument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw " << typeid(e).name() << " instead of InvalidArgument: "
                    << e.what();
      return;
    }

    SolverService service(parse_service_config("spill_dir=" + spill));
    try {
      service.restore_from(dir);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "restore threw " << typeid(e).name() << ": " << e.what();
      return;
    }
    const SessionStore& store = service.store();
    if (!adoptable) {
      EXPECT_EQ(store.restore_faults(), 1u);
      EXPECT_EQ(store.spill_entries(), 0u);
      ++tally.skipped;
      return;
    }
    EXPECT_EQ(store.restore_faults(), 0u);
    ASSERT_EQ(store.spill_entries(), 1u);
    const std::size_t reloads = store.spill_reloads();
    const std::string response = service.handle_line(solve);
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
    if (imports) {
      EXPECT_EQ(store.spill_reloads(), reloads + 1);
      EXPECT_EQ(store.spill_faults(), 0u);
      ++tally.warm;
    } else {
      EXPECT_EQ(store.spill_reloads(), reloads);
      EXPECT_EQ(store.spill_faults(), 1u);
      EXPECT_NE(response.find("\"path\":\"initial\""), std::string::npos) << response;
      ++tally.cold;
    }
  };
  Rng rng(0x5B11);
  for (std::size_t i = 0; i < kBitFlips / 2; ++i) {
    std::string m = base;
    const std::size_t at = rng.index(m.size());
    const int bit = static_cast<int>(rng.index(8));
    m[at] = static_cast<char>(m[at] ^ (1 << bit));
    run(m, "bit " + std::to_string(bit) + " of byte " + std::to_string(at));
  }
  for (std::size_t i = 0; i < kByteSets / 2; ++i) {
    std::string m = base;
    const std::size_t at = rng.index(m.size());
    m[at] = rng.bernoulli(0.5) ? '\x00' : '\xFF';
    run(m, "byte " + std::to_string(at) + " set to " +
               std::to_string(static_cast<unsigned char>(m[at])));
  }
  for (std::size_t at = 0; at < base.size(); ++at) {
    run(base.substr(0, at), "truncated at " + std::to_string(at));
  }
  for (std::size_t at = 0; at + 4 <= base.size(); ++at) {
    run(test_support::with_u32(base, at, 0xFFFFFFFFu),
        "u32 at " + std::to_string(at) + " set to 0xFFFFFFFF");
  }
  // None of the three outcomes may be vacuous: node-table damage is
  // skipped, frontier damage mostly reloads warm, and count, name and
  // truncation damage past the node table reloads cold.
  EXPECT_GT(tally.skipped, tally.mutants / 20);
  EXPECT_GT(tally.warm, tally.mutants / 20);
  EXPECT_GT(tally.cold, tally.mutants / 20);
  std::cout << "fuzz_spilled: " << tally.mutants << " mutants, " << tally.skipped
            << " skipped at restore, " << tally.warm << " reloaded warm, " << tally.cold
            << " reloaded cold\n";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(spill);
}

}  // namespace
}  // namespace treesat
