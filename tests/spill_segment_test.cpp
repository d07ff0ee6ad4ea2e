// The spill tier's segment file (storage/segment.hpp) and the store that
// spills into it (service/session_store.hpp): slot reuse and coalescing,
// compaction, one file per store, and a seeded spill/reload/drop/resubmit
// property run over the whole store.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/registry.hpp"
#include "service/session_store.hpp"
#include "storage/segment.hpp"
#include "storage/snapshot.hpp"
#include "workload/generator.hpp"

namespace treesat {
namespace {

std::string temp_subdir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/treesat_segment_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::size_t files_in(const std::string& dir) {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& file : std::filesystem::directory_iterator(dir)) ++n;
  return n;
}

TEST(SegmentFile, ReleasedSlotsCoalesceAndAreReusedFirstFit) {
  SegmentFile segment(temp_subdir("slots"));
  EXPECT_TRUE(segment.path().empty());  // no file before the first write
  const SegmentFile::Extent a = segment.write(std::string(100, 'a'));
  const SegmentFile::Extent b = segment.write(std::string(50, 'b'));
  const SegmentFile::Extent c = segment.write(std::string(80, 'c'));
  const SegmentFile::Extent d = segment.write(std::string(30, 'd'));
  EXPECT_EQ(a.offset, 0u);
  EXPECT_EQ(b.offset, 100u);
  EXPECT_EQ(c.offset, 150u);
  EXPECT_EQ(d.offset, 230u);
  EXPECT_EQ(segment.file_bytes(), 260u);
  EXPECT_EQ(std::filesystem::file_size(segment.path()), 260u);

  // b and c coalesce into one 130-byte hole; a 120-byte record fits it.
  segment.release(b);
  segment.release(c);
  EXPECT_EQ(segment.live_bytes(), 130u);
  const SegmentFile::Extent e = segment.write(std::string(120, 'e'));
  EXPECT_EQ(e.offset, 100u);
  // The 10 bytes left over take a small record; the next append grows.
  const SegmentFile::Extent f = segment.write(std::string(10, 'f'));
  EXPECT_EQ(f.offset, 220u);
  const SegmentFile::Extent g = segment.write(std::string(5, 'g'));
  EXPECT_EQ(g.offset, 260u);

  EXPECT_EQ(segment.read(a), std::string(100, 'a'));
  EXPECT_EQ(segment.read(e), std::string(120, 'e'));
  EXPECT_EQ(segment.read(f), std::string(10, 'f'));
  EXPECT_EQ(segment.read(d), std::string(30, 'd'));
  EXPECT_EQ(segment.live_bytes(), 265u);
}

TEST(SegmentFile, TheTailHoleGrowsIntoAnAppend) {
  SegmentFile segment(temp_subdir("tail"));
  const SegmentFile::Extent a = segment.write(std::string(100, 'a'));
  const SegmentFile::Extent b = segment.write(std::string(40, 'b'));
  segment.release(b);
  // No hole holds 60 bytes, but the tail hole starts the record.
  const SegmentFile::Extent c = segment.write(std::string(60, 'c'));
  EXPECT_EQ(c.offset, 100u);
  EXPECT_EQ(segment.file_bytes(), 160u);
  EXPECT_EQ(segment.read(a), std::string(100, 'a'));
  EXPECT_EQ(segment.read(c), std::string(60, 'c'));
}

TEST(SegmentFile, CompactionSlidesLiveExtentsForwardAndTruncates) {
  SegmentFile segment(temp_subdir("compact"));
  std::vector<SegmentFile::Extent> extents;
  for (int i = 0; i < 6; ++i) {
    extents.push_back(segment.write(std::string(static_cast<std::size_t>(40 + 10 * i),
                                                static_cast<char>('a' + i))));
  }
  EXPECT_FALSE(segment.wants_compaction());
  // Dead bytes pass live ones: records 0, 2, 3 and 5 go (40+60+70+90 of 390).
  for (const int i : {0, 2, 3, 5}) segment.release(extents[static_cast<std::size_t>(i)]);
  EXPECT_TRUE(segment.wants_compaction());
  std::vector<SegmentFile::Extent*> live = {&extents[4], &extents[1]};
  segment.compact(live);
  EXPECT_EQ(extents[1].offset, 0u);
  EXPECT_EQ(extents[4].offset, 50u);
  EXPECT_EQ(segment.file_bytes(), 130u);
  EXPECT_EQ(std::filesystem::file_size(segment.path()), 130u);
  EXPECT_FALSE(segment.wants_compaction());
  EXPECT_EQ(segment.read(extents[1]), std::string(50, 'b'));
  EXPECT_EQ(segment.read(extents[4]), std::string(80, 'e'));
  // An incomplete list would overwrite a record it does not know about.
  std::vector<SegmentFile::Extent*> partial = {&extents[4]};
  EXPECT_THROW(segment.compact(partial), LogicError);
}

TEST(SegmentFile, AReadPastTheEndComesBackShort) {
  SegmentFile segment(temp_subdir("short"));
  const SegmentFile::Extent a = segment.write(std::string(64, 'a'));
  std::filesystem::resize_file(segment.path(), 20);
  EXPECT_EQ(segment.read(a), std::string(20, 'a'));
}

TEST(SegmentFile, AbandonLosesEveryEarlierExtent) {
  const std::string dir = temp_subdir("abandon");
  SegmentFile segment(dir);
  const SegmentFile::Extent a = segment.write("before");
  const std::string first = segment.path();
  std::filesystem::remove_all(dir);
  segment.abandon();
  EXPECT_FALSE(segment.holds(a));
  EXPECT_THROW(static_cast<void>(segment.read(a)), ResourceLimit);
  segment.release(a);  // a lost extent is ignored
  EXPECT_EQ(segment.live_bytes(), 0u);
  // The next write recreates the directory and starts a fresh file.
  const SegmentFile::Extent b = segment.write("after");
  EXPECT_TRUE(segment.holds(b));
  EXPECT_NE(segment.path(), first);
  EXPECT_EQ(segment.read(b), "after");
}

TEST(SegmentFile, EachSegmentOwnsItsFileUntilDestroyedOrMoved) {
  const std::string dir = temp_subdir("owners");
  std::string kept;
  {
    SegmentFile one(dir);
    SegmentFile two(dir);
    static_cast<void>(one.write("one"));
    static_cast<void>(two.write("two"));
    EXPECT_NE(one.path(), two.path());
    EXPECT_EQ(files_in(dir), 2u);

    // A moved-from segment owns nothing; its destruction removes nothing.
    SegmentFile three(std::move(one));
    EXPECT_TRUE(one.path().empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(files_in(dir), 2u);
    // Assigning over a segment releases the file it owned.
    const std::string gone = two.path();
    two = std::move(three);
    EXPECT_FALSE(std::filesystem::exists(gone));
    EXPECT_EQ(files_in(dir), 1u);
    kept = two.path();
    EXPECT_TRUE(std::filesystem::exists(kept));
  }
  EXPECT_FALSE(std::filesystem::exists(kept));
  EXPECT_EQ(files_in(dir), 0u);
}

TEST(SpillSegmentStore, TwoStoresOnOneDirectoryKeepTheirOwnBytes) {
  const std::string dir = temp_subdir("two_stores");
  Rng rng(5);
  TreeGenOptions options;
  options.compute_nodes = 12;
  SessionStore first(1, 0, dir);
  SessionStore second(1, 0, dir);
  for (SessionStore* store : {&first, &second}) {
    SessionEntry& entry = store->put("t", "w", random_tree(rng, options));
    entry.session = std::make_unique<ResolveSession>(CruTree(*entry.tree), parse_plan("pareto-dp"));
    entry.tree.reset();
    store->refresh_bytes(entry);
  }
  const std::string expected = encode_snapshot(session_entry_state(*first.find("t", "w")));
  ASSERT_EQ(first.evict("t", "w", false), EvictFate::kSpilled);
  ASSERT_EQ(second.evict("t", "w", false), EvictFate::kSpilled);
  EXPECT_NE(first.segment_path(), second.segment_path());
  EXPECT_EQ(files_in(dir), 2u);
  {
    SessionStore moved = std::move(second);
    EXPECT_TRUE(second.segment_path().empty());  // NOLINT(bugprone-use-after-move)
  }
  EXPECT_EQ(files_in(dir), 1u);
  bool reloaded = false;
  const SessionEntry* entry = first.find("t", "w", &reloaded);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(reloaded);
  EXPECT_EQ(encode_snapshot(session_entry_state(*entry)), expected);
}

/// The property run: seeded spill/reload/drop/resubmit steps over sessions
/// of mixed sizes under a budget of a few warm sessions. Every reload must
/// come back warm with the bytes that were spilled, no two live extents may
/// overlap, and the segment file may never pass 2 x live bytes + the
/// largest live record.
TEST(SpillSegmentStore, SeededChurnKeepsBytesExtentsAndTheSizeBound) {
  constexpr std::size_t kSessions = 20;
  constexpr std::size_t kSteps = 2400;
  const std::string dir = temp_subdir("churn");
  Rng rng(0x5E6);
  const SolvePlan plan = parse_plan("pareto-dp");

  // Trees from 4 to 64 compute nodes, so snapshots differ several-fold.
  std::vector<CruTree> trees;
  for (std::size_t i = 0; i < kSessions; ++i) {
    TreeGenOptions options;
    options.compute_nodes = 4 + (i * 60) / (kSessions - 1);
    options.satellites = 2 + i % 3;
    trees.push_back(random_tree(rng, options));
  }
  const auto name = [](std::size_t i) {
    std::string out = "w";  // appended: GCC 12 misfires -Wrestrict on "w" + ...
    out += std::to_string(i);
    return out;
  };

  SessionStore store(1, 24 * 1024, dir);
  std::map<std::string, std::string> spilled_as;  // key -> snapshot bytes
  std::vector<bool> present(kSessions, false);
  std::size_t reloads = 0;
  std::size_t shrinks = 0;
  std::uintmax_t last_size = 0;

  const auto resubmit = [&](std::size_t i) {
    SessionEntry& entry = store.put("t", name(i), trees[i]);
    entry.session = std::make_unique<ResolveSession>(CruTree(*entry.tree), plan);
    entry.tree.reset();
    store.refresh_bytes(entry);
    spilled_as["t/" + name(i)] = encode_snapshot(session_entry_state(entry));
    present[i] = true;
    static_cast<void>(store.enforce_budget(&entry));
  };

  for (std::size_t step = 0; step < kSteps; ++step) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, kSessions - 1));
    const std::string key = "t/" + name(i);
    const std::int64_t action = rng.uniform_int(0, 9);
    if (!present[i] || action == 0) {
      resubmit(i);
    } else if (action == 1) {
      EXPECT_EQ(store.evict("t", name(i), /*drop=*/true), EvictFate::kDropped);
      present[i] = false;
    } else if (action <= 3) {
      EXPECT_EQ(store.evict("t", name(i), /*drop=*/false), EvictFate::kSpilled);
    } else {
      const bool was_spilled = store.spill_records().count(key) != 0;
      bool reloaded = false;
      SessionEntry* entry = store.find("t", name(i), &reloaded);
      ASSERT_NE(entry, nullptr) << "step " << step;
      EXPECT_EQ(reloaded, was_spilled) << "step " << step;
      if (reloaded) {
        ++reloads;
        ASSERT_NE(entry->session, nullptr);
        EXPECT_EQ(encode_snapshot(session_entry_state(*entry)), spilled_as[key])
            << "step " << step;
      }
      static_cast<void>(store.enforce_budget(entry));
    }

    // Every spilled record holds exactly its snapshot, in a slot of its own.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;
    std::uint64_t live = 0;
    std::uint64_t largest = 0;
    for (const auto& [k, record] : store.spill_records()) {
      ASSERT_EQ(record.extent.length, spilled_as[k].size()) << k;
      extents.emplace_back(record.extent.offset, record.extent.length);
      live += record.extent.length;
      largest = std::max(largest, record.extent.length);
    }
    EXPECT_EQ(live, store.spill_bytes());
    std::sort(extents.begin(), extents.end());
    for (std::size_t k = 1; k < extents.size(); ++k) {
      ASSERT_LE(extents[k - 1].first + extents[k - 1].second, extents[k].first)
          << "step " << step << ": extents overlap";
    }
    const std::uintmax_t size =
        store.segment_path().empty() ? 0 : std::filesystem::file_size(store.segment_path());
    ASSERT_LE(size, 2 * live + largest) << "step " << step;
    if (size < last_size) ++shrinks;
    last_size = size;
  }
  EXPECT_EQ(store.spill_faults(), 0u);
  // The run really churned: many warm reloads, and compaction ran.
  EXPECT_GT(reloads, kSteps / 10);
  EXPECT_GT(shrinks, 0u);
  EXPECT_GT(store.spills(), kSteps / 4);
}

}  // namespace
}  // namespace treesat
