// Seeded mutation fuzzing of the v3 snapshot decoder and the import behind
// it (storage/snapshot.hpp, core/incremental.hpp, service/session_store.hpp).
//
// Seeds are v3 snapshots of every scenario-library instance, of a drifted
// epilepsy session and of a tree-only state. Each seed yields a fixed set of
// mutants from a fixed RNG seed: bit flips, bytes set to 0x00 or 0xFF, a
// truncation at every section boundary, every u32 count or length set to
// 0xFFFFFFFF, and every section spliced in from every other seed. Each
// mutant is re-framed with a correct hash, so it reaches the payload
// decoder, and must then either decode and import or throw InvalidArgument.
// Any other exception fails the test: a LogicError, a length_error, or a
// bad_alloc from an allocation a hostile count sized. ci.sh runs this suite
// under UBSan, and under ASan with a max_allocation_size_mb cap, where an
// oversized allocation is an error report that aborts the run even on a
// host with the memory to satisfy it.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/incremental.hpp"
#include "service/session_store.hpp"
#include "snapshot_layout.hpp"
#include "storage/snapshot.hpp"
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

}  // namespace
}  // namespace treesat
