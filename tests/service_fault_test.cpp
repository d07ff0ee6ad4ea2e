// Fault wall for the warm tiers (storage/faults.hpp, session_store.cpp,
// checkpoint.cpp): deterministic injection schedules, real on-disk
// corruption, and the one contract every scenario must uphold -- a storage
// fault costs a cold re-solve (or, at worst, a cache miss) plus a counter,
// never a client-visible error, a wrong optimum, or a dead process. The
// degradation half of the overload story lives in service_test.cpp /
// service_determinism_test.cpp; this file is about the storage half.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "io/json.hpp"
#include "service/service.hpp"
#include "storage/faults.hpp"
#include "storage/snapshot.hpp"
#include "tree/serialize.hpp"
#include "workload/scenarios.hpp"
#include "workload/traffic.hpp"

namespace treesat {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

#define EXPECT_CONTAINS(response, needle) \
  EXPECT_TRUE(contains(response, needle)) << "response: " << response

std::string temp_subdir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/treesat_fault_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string submit_line(const std::string& tenant, const std::string& instance,
                        const CruTree& tree) {
  std::string line = "{\"op\":\"submit\",\"tenant\":\"";
  line += tenant;
  line += "\",\"instance\":\"";
  line += instance;
  line += "\",\"tree\":\"";
  line += json_escape(to_text(tree));
  line += "\"}";
  return line;
}

std::string solve_line(const std::string& tenant, const std::string& instance) {
  return "{\"op\":\"solve\",\"tenant\":\"" + tenant + "\",\"instance\":\"" + instance + "\"}";
}

std::string evict_line(const std::string& tenant, const std::string& instance) {
  return "{\"op\":\"evict\",\"tenant\":\"" + tenant + "\",\"instance\":\"" + instance + "\"}";
}

/// The "objective":<number> substring of a response (empty when absent).
std::string objective_of(const std::string& line) {
  const auto at = line.find("\"objective\":");
  if (at == std::string::npos) return {};
  auto end = at;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(at, end - at);
}

/// Flips one byte in the middle of a file (real corruption, no FaultPlan).
void corrupt_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string bytes = buffer.str();
  ASSERT_FALSE(bytes.empty()) << path;
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5A);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Truncates a file to half its size.
void truncate_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
}

// --- FaultPlan itself ----------------------------------------------------

TEST(FaultPlan, ScheduleIsDeterministicPerPointAndSeed) {
  FaultPlan a;
  a.seed = 42;
  a.probability[static_cast<std::size_t>(FaultPoint::kSpillRead)] = 0.5;
  a.probability[static_cast<std::size_t>(FaultPoint::kSpillWrite)] = 0.25;
  FaultPlan b = a;

  // Interleaving differs, decisions do not: each point owns its trial
  // counter, so draw order across points cannot perturb the schedule.
  std::vector<bool> reads_a;
  std::vector<bool> reads_b;
  for (int i = 0; i < 64; ++i) {
    reads_a.push_back(a.fires(FaultPoint::kSpillRead));
    static_cast<void>(a.fires(FaultPoint::kSpillWrite));
  }
  for (int i = 0; i < 64; ++i) reads_b.push_back(b.fires(FaultPoint::kSpillRead));
  EXPECT_EQ(reads_a, reads_b);
  EXPECT_EQ(a.trials(FaultPoint::kSpillRead), 64u);
  EXPECT_EQ(a.trials(FaultPoint::kSpillWrite), 64u);
  EXPECT_EQ(b.trials(FaultPoint::kSpillWrite), 0u);

  // ~0.5 of 64 trials should fire; the exact count is pinned by the seed.
  std::uint64_t fired = 0;
  for (const bool f : reads_a) fired += f ? 1u : 0u;
  EXPECT_EQ(fired, a.fired(FaultPoint::kSpillRead));
  EXPECT_GT(fired, 16u);
  EXPECT_LT(fired, 48u);
  // The decisions themselves are pinned too (bit i = trial i fired), so the
  // splitmix64 behind the decision hash cannot drift.
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < reads_a.size(); ++i) {
    if (reads_a[i]) mask |= std::uint64_t{1} << i;
  }
  EXPECT_EQ(mask, 0xa7f344534d270b5cULL);

  // A different seed is a different schedule.
  FaultPlan c;
  c.seed = 43;
  c.probability = a.probability;
  std::vector<bool> reads_c;
  for (int i = 0; i < 64; ++i) reads_c.push_back(c.fires(FaultPoint::kSpillRead));
  EXPECT_NE(reads_a, reads_c);
}

TEST(FaultPlan, DisarmedAndProbabilityExtremes) {
  FaultPlan off;
  EXPECT_FALSE(off.enabled());
  for (int i = 0; i < 16; ++i) EXPECT_FALSE(off.fires(FaultPoint::kSpillRead));

  FaultPlan always;
  always.seed = 7;
  always.probability[static_cast<std::size_t>(FaultPoint::kSpillTruncate)] = 1.0;
  EXPECT_TRUE(always.enabled());
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(always.fires(FaultPoint::kSpillTruncate));
}

TEST(FaultPlan, SpecRoundTripsThroughParse) {
  const FaultPlan plan = parse_fault_plan("seed:7;spill_read:0.5;truncate:0.25");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_EQ(plan.probability[static_cast<std::size_t>(FaultPoint::kSpillRead)], 0.5);
  EXPECT_EQ(plan.probability[static_cast<std::size_t>(FaultPoint::kSpillTruncate)], 0.25);

  const std::string spec = fault_plan_spec(plan);
  FaultPlan again = parse_fault_plan(spec);
  EXPECT_EQ(fault_plan_spec(again), spec);
  FaultPlan copy = plan;
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(copy.fires(FaultPoint::kSpillRead), again.fires(FaultPoint::kSpillRead));
  }

  EXPECT_FALSE(parse_fault_plan("").enabled());
  EXPECT_EQ(fault_plan_spec(FaultPlan{}), "");
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(static_cast<void>(parse_fault_plan("bogus:0.5")), InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_fault_plan("spill_read:2.0")), InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_fault_plan("spill_read:-0.1")), InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_fault_plan("seed:x")), InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_fault_plan("seed")), InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_fault_plan("spill_read:0.5;spill_read:0.1")),
               InvalidArgument);
}

// --- real on-disk corruption of the spill tier ---------------------------

/// Where one spilled record's bytes sit: the store's segment file and the
/// record's extent in it.
struct SpilledSlot {
  std::string segment;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

SpilledSlot spilled_slot(const SolverService& service, const std::string& key) {
  const SessionStore& store = service.store();
  const auto it = store.spill_records().find(key);
  if (it == store.spill_records().end()) return {};
  return {store.segment_path(), it->second.extent.offset, it->second.extent.length};
}

std::string read_slot(const SpilledSlot& slot) {
  std::ifstream in(slot.segment, std::ios::binary);
  in.seekg(static_cast<std::streamoff>(slot.offset));
  std::string bytes(slot.length, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  return bytes;
}

void write_slot(const SpilledSlot& slot, const std::string& bytes) {
  std::fstream out(slot.segment, std::ios::binary | std::ios::in | std::ios::out);
  out.seekp(static_cast<std::streamoff>(slot.offset));
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Shared scenario: submit + solve + evict-to-spill, then damage the
/// record's bytes inside the segment and solve again. `damage` leaves in
/// its second argument the bytes a reload reads back (empty when none
/// survive). The reload must be a cache miss that re-solves from the
/// retained tree -- same optimum, one spill_fault, the damaged bytes
/// quarantined in a .bad file -- never a client error.
void corrupt_spill_scenario(const std::string& tag,
                            void (*damage)(const SpilledSlot&, std::string&)) {
  const std::string spill = temp_subdir(tag);
  SolverService service(parse_service_config("spill_dir=" + spill));
  const CruTree tree = paper_running_example();

  ASSERT_TRUE(contains(service.handle_line(submit_line("t0", "w0", tree)), "\"ok\":true"));
  const std::string solved = service.handle_line(solve_line("t0", "w0"));
  ASSERT_TRUE(contains(solved, "\"ok\":true"));
  const std::string objective = objective_of(solved);
  ASSERT_FALSE(objective.empty());
  ASSERT_TRUE(
      contains(service.handle_line(evict_line("t0", "w0")), "\"fate\":\"spilled\""));

  const SpilledSlot slot = spilled_slot(service, "t0/w0");
  ASSERT_TRUE(std::filesystem::exists(slot.segment));
  ASSERT_GT(slot.length, 0u);
  ASSERT_EQ(read_slot(slot).size(), slot.length);
  std::string damaged;
  damage(slot, damaged);

  const std::string reloaded = service.handle_line(solve_line("t0", "w0"));
  EXPECT_CONTAINS(reloaded, "\"ok\":true");
  // A cache miss, not a warm reload: the session is rebuilt from the
  // retained tree-only snapshot, so the solve reports the initial path...
  EXPECT_CONTAINS(reloaded, "\"path\":\"initial\"");
  // ...and lands on the same optimum (the solver is exact either way).
  EXPECT_EQ(objective_of(reloaded), objective);
  // The record left the spill tier, and the damaged bytes are quarantined
  // for post-mortems (vanished bytes leave nothing to quarantine). The
  // directory holds the segment and nothing else but that copy.
  EXPECT_EQ(service.store().spill_records().count("t0/w0"), 0u);
  EXPECT_EQ(service.store().spill_bytes(), 0u);
  const std::string bad = spill + "/" + snapshot_file_name("t0", "w0") + ".bad";
  EXPECT_EQ(std::filesystem::exists(bad), !damaged.empty());
  if (!damaged.empty()) {
    EXPECT_EQ(read_file_bytes(bad), damaged);
  }
  std::vector<std::string> files;
  for (const auto& file : std::filesystem::directory_iterator(spill)) {
    files.push_back(file.path().string());
  }
  std::vector<std::string> expected = {slot.segment};
  if (!damaged.empty()) expected.push_back(bad);
  std::sort(files.begin(), files.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(files, expected);

  const std::string stats = service.handle_line("{\"op\":\"stats\"}");
  EXPECT_CONTAINS(stats, "\"spill_faults\":1");
  EXPECT_CONTAINS(stats, "\"errors\":0");
}

TEST(ServiceFaults, CorruptSpillSnapshotIsACacheMissNotAnError) {
  corrupt_spill_scenario("corrupt", [](const SpilledSlot& slot, std::string& damaged) {
    damaged = read_slot(slot);
    damaged[damaged.size() / 2] = static_cast<char>(damaged[damaged.size() / 2] ^ 0x5A);
    write_slot(slot, damaged);
  });
}

TEST(ServiceFaults, TruncatedSpillSnapshotIsACacheMissNotAnError) {
  // The segment ends halfway through the record: the reload reads half.
  corrupt_spill_scenario("truncated", [](const SpilledSlot& slot, std::string& damaged) {
    damaged = read_slot(slot).substr(0, slot.length / 2);
    std::filesystem::resize_file(slot.segment, slot.offset + slot.length / 2);
  });
}

TEST(ServiceFaults, VanishedSpillFileIsACacheMissNotAnError) {
  // The segment ends where the record starts: none of its bytes survive.
  corrupt_spill_scenario("vanished", [](const SpilledSlot& slot, std::string& damaged) {
    damaged.clear();
    std::filesystem::resize_file(slot.segment, slot.offset);
  });
}

TEST(ServiceFaults, NonFiniteCachedFrontierIsQuarantinedAndReSolved) {
  // Hash-valid but poisoned: the spilled snapshot's colour cache carries a
  // NaN load and a -inf host. The reload's import rejects it, so the bytes
  // are quarantined and the instance re-solves to the same optimum instead
  // of folding the poisoned frontier into its next answer.
  corrupt_spill_scenario("nonfinite", [](const SpilledSlot& slot, std::string& damaged) {
    SessionState state = decode_snapshot(read_slot(slot));
    ASSERT_FALSE(state.colour_cache.empty());
    FrontierEntry& frontier = state.colour_cache.front().frontier;
    frontier.load.front() = std::numeric_limits<double>::quiet_NaN();
    frontier.host.front() = -std::numeric_limits<double>::infinity();
    damaged = encode_snapshot(state);
    ASSERT_EQ(damaged.size(), slot.length);  // same shape, same size
    write_slot(slot, damaged);
  });
}

// --- injected faults, point by point -------------------------------------

TEST(ServiceFaults, SpillWriteFaultLeavesATombstoneThatColdResolves) {
  const std::string spill = temp_subdir("write_fault");
  SolverService service(
      parse_service_config("spill_dir=" + spill + ",fault=seed:3;spill_write:1"));
  const CruTree tree = paper_running_example();

  ASSERT_TRUE(contains(service.handle_line(submit_line("t0", "w0", tree)), "\"ok\":true"));
  const std::string solved = service.handle_line(solve_line("t0", "w0"));
  const std::string objective = objective_of(solved);
  ASSERT_TRUE(contains(service.handle_line(evict_line("t0", "w0")), "\"ok\":true"));
  // The write failed: no bytes landed, only the in-memory tombstone.
  EXPECT_EQ(spilled_slot(service, "t0/w0").length, 0u);

  const std::string reloaded = service.handle_line(solve_line("t0", "w0"));
  EXPECT_CONTAINS(reloaded, "\"ok\":true");
  EXPECT_CONTAINS(reloaded, "\"path\":\"initial\"");
  EXPECT_EQ(objective_of(reloaded), objective);
  EXPECT_CONTAINS(service.handle_line("{\"op\":\"stats\"}"), "\"spill_faults\":1");
}

TEST(ServiceFaults, SpillReadFaultQuarantinesAndReSolves) {
  const std::string spill = temp_subdir("read_fault");
  SolverService service(
      parse_service_config("spill_dir=" + spill + ",fault=seed:3;spill_read:1"));
  const CruTree tree = paper_running_example();

  ASSERT_TRUE(contains(service.handle_line(submit_line("t0", "w0", tree)), "\"ok\":true"));
  const std::string objective = objective_of(service.handle_line(solve_line("t0", "w0")));
  ASSERT_TRUE(contains(service.handle_line(evict_line("t0", "w0")), "\"fate\":\"spilled\""));

  const std::string reloaded = service.handle_line(solve_line("t0", "w0"));
  EXPECT_CONTAINS(reloaded, "\"ok\":true");
  EXPECT_EQ(objective_of(reloaded), objective);
  EXPECT_CONTAINS(service.handle_line("{\"op\":\"stats\"}"), "\"spill_faults\":1");
}

TEST(ServiceFaults, InjectedTruncationAndHashFlipAreCacheMisses) {
  for (const char* point : {"truncate", "hash_flip"}) {
    const std::string spill = temp_subdir(std::string("inject_") + point);
    SolverService service(parse_service_config("spill_dir=" + spill + ",fault=seed:5;" +
                                               std::string(point) + ":1"));
    const CruTree tree = paper_running_example();
    ASSERT_TRUE(
        contains(service.handle_line(submit_line("t0", "w0", tree)), "\"ok\":true"));
    const std::string objective = objective_of(service.handle_line(solve_line("t0", "w0")));
    ASSERT_TRUE(
        contains(service.handle_line(evict_line("t0", "w0")), "\"fate\":\"spilled\""));

    const std::string reloaded = service.handle_line(solve_line("t0", "w0"));
    EXPECT_CONTAINS(reloaded, "\"ok\":true");
    EXPECT_EQ(objective_of(reloaded), objective) << point;
    EXPECT_CONTAINS(service.handle_line("{\"op\":\"stats\"}"), "\"spill_faults\":1");
  }
}

TEST(ServiceFaults, SpillDirVanishIsHealedOnTheNextWrite) {
  const std::string spill = temp_subdir("vanish");
  SolverService service(
      parse_service_config("spill_dir=" + spill + ",fault=seed:3;dir_vanish:1"));
  const CruTree tree = paper_running_example();

  ASSERT_TRUE(contains(service.handle_line(submit_line("t0", "w0", tree)), "\"ok\":true"));
  const std::string objective = objective_of(service.handle_line(solve_line("t0", "w0")));
  // The directory vanishes right before the write; the tier recreates it
  // with a fresh segment and the spill still lands.
  ASSERT_TRUE(contains(service.handle_line(evict_line("t0", "w0")), "\"fate\":\"spilled\""));
  const SpilledSlot slot = spilled_slot(service, "t0/w0");
  ASSERT_GT(slot.length, 0u);
  EXPECT_TRUE(std::filesystem::exists(slot.segment));
  EXPECT_EQ(read_slot(slot).size(), slot.length);

  const std::string reloaded = service.handle_line(solve_line("t0", "w0"));
  EXPECT_CONTAINS(reloaded, "\"ok\":true");
  EXPECT_EQ(objective_of(reloaded), objective);
  EXPECT_CONTAINS(service.handle_line("{\"op\":\"stats\"}"), "\"spill_faults\":1");
}

TEST(ServiceFaults, RestoreReadFaultSkipsAndCounts) {
  const std::string spill = temp_subdir("restore_fault_spill");
  const std::string ckpt = temp_subdir("restore_fault_ckpt");
  const CruTree tree = paper_running_example();
  {
    SolverService service(parse_service_config("spill_dir=" + spill));
    ASSERT_TRUE(
        contains(service.handle_line(submit_line("t0", "w0", tree)), "\"ok\":true"));
    ASSERT_TRUE(
        contains(service.handle_line(submit_line("t0", "w1", tree)), "\"ok\":true"));
    ASSERT_TRUE(contains(service.handle_line(solve_line("t0", "w0")), "\"ok\":true"));
    ASSERT_TRUE(contains(service.handle_line(solve_line("t0", "w1")), "\"ok\":true"));
    service.checkpoint_to(ckpt);
  }

  SolverService restarted(
      parse_service_config("spill_dir=" + spill + ",fault=seed:9;restore_read:1"));
  const std::string restored =
      restarted.handle_line("{\"op\":\"restore\",\"dir\":\"" + json_escape(ckpt) + "\"}");
  // Every snapshot read was injected away; the restore itself succeeds
  // with an empty store instead of aborting the restart.
  EXPECT_CONTAINS(restored, "\"ok\":true");
  EXPECT_CONTAINS(restored, "\"entries\":0");
  EXPECT_CONTAINS(restarted.handle_line("{\"op\":\"stats\"}"), "\"restore_faults\":2");

  // The tenant resubmits and life goes on.
  EXPECT_CONTAINS(restarted.handle_line(submit_line("t0", "w0", tree)), "\"ok\":true");
  EXPECT_CONTAINS(restarted.handle_line(solve_line("t0", "w0")), "\"ok\":true");
}

// --- real corruption of a checkpoint -------------------------------------

TEST(ServiceFaults, RestoreSkipsDamagedSnapshotsButKeepsTheRest) {
  const std::string spill = temp_subdir("ckpt_skip_spill");
  const std::string ckpt = temp_subdir("ckpt_skip_dir");
  const CruTree tree = paper_running_example();
  std::string objective;
  {
    SolverService service(parse_service_config("spill_dir=" + spill));
    ASSERT_TRUE(
        contains(service.handle_line(submit_line("t0", "w0", tree)), "\"ok\":true"));
    ASSERT_TRUE(
        contains(service.handle_line(submit_line("t0", "w1", tree)), "\"ok\":true"));
    ASSERT_TRUE(contains(service.handle_line(solve_line("t0", "w0")), "\"ok\":true"));
    objective = objective_of(service.handle_line(solve_line("t0", "w1")));
    service.checkpoint_to(ckpt);
  }
  corrupt_file(ckpt + "/sessions/" + snapshot_file_name("t0", "w0"));

  SolverService restarted(parse_service_config("spill_dir=" + spill));
  const std::string restored =
      restarted.handle_line("{\"op\":\"restore\",\"dir\":\"" + json_escape(ckpt) + "\"}");
  EXPECT_CONTAINS(restored, "\"ok\":true");
  // w0's snapshot was damaged and skipped; w1 survives warm.
  EXPECT_CONTAINS(restored, "\"entries\":1");
  EXPECT_CONTAINS(restarted.handle_line("{\"op\":\"stats\"}"), "\"restore_faults\":1");
  const std::string warm = restarted.handle_line(solve_line("t0", "w1"));
  EXPECT_CONTAINS(warm, "\"path\":\"cached\"");
  EXPECT_EQ(objective_of(warm), objective);
  // The damaged instance is gone -- a descriptive miss, not a crash.
  EXPECT_CONTAINS(restarted.handle_line(solve_line("t0", "w0")), "\"ok\":false");
  EXPECT_CONTAINS(restarted.handle_line(solve_line("t0", "w0")), "unknown instance");
}

TEST(ServiceFaults, FailedRestoreLeavesTheLiveSpilledSessionsAlone) {
  // A restore that fails after copying in the checkpoint's spilled rows --
  // here at a repeated tenant row; a method-count mismatch from another
  // build fails at the same place -- must leave the live store serving
  // what it spilled, not the checkpoint's older copy of it.
  const std::string spill = temp_subdir("failed_restore_spill");
  const std::string ckpt = temp_subdir("failed_restore_ckpt");
  const std::string broken = temp_subdir("failed_restore_broken");
  SolverService service(parse_service_config("spill_dir=" + spill));
  ASSERT_TRUE(contains(service.handle_line(submit_line("t0", "w0", paper_running_example())),
                       "\"ok\":true"));
  ASSERT_EQ(objective_of(service.handle_line(solve_line("t0", "w0"))), "\"objective\":53");
  ASSERT_TRUE(contains(service.handle_line(evict_line("t0", "w0")), "\"fate\":\"spilled\""));
  service.checkpoint_to(ckpt);
  ASSERT_TRUE(contains(service.handle_line(solve_line("t0", "w0")), "\"path\":\"cached\""));
  const std::string drifted = service.handle_line(
      "{\"op\":\"perturb\",\"tenant\":\"t0\",\"instance\":\"w0\",\"kind\":\"global_drift\","
      "\"host_scale\":3,\"sat_scale\":0.5,\"comm_scale\":2}");
  ASSERT_EQ(objective_of(drifted), "\"objective\":47.5");
  ASSERT_TRUE(contains(service.handle_line(evict_line("t0", "w0")), "\"fate\":\"spilled\""));

  // A copy of the checkpoint whose manifest repeats its tenant row,
  // re-framed so its hash is valid.
  std::filesystem::copy(ckpt, broken, std::filesystem::copy_options::recursive);
  const std::string manifest = broken + "/MANIFEST.tsc";
  std::string payload(unframe_payload("treesat_checkpoint", "v3", read_file_bytes(manifest),
                                      "checkpoint"));
  const std::size_t head = payload.find("tenants 1\n");
  ASSERT_NE(head, std::string::npos);
  payload.replace(head, 10, "tenants 2\n");
  const std::size_t row = payload.find("\ntenant ") + 1;
  const std::string tenant_row = payload.substr(row, payload.find('\n', row) + 1 - row);
  payload.insert(row, tenant_row);
  write_file_atomic(manifest, frame_payload("treesat_checkpoint", "v3", payload));

  const std::string restored =
      service.handle_line("{\"op\":\"restore\",\"dir\":\"" + json_escape(broken) + "\"}");
  EXPECT_CONTAINS(restored, "\"ok\":false");
  EXPECT_CONTAINS(restored, "duplicate tenant row");
  const std::string after = service.handle_line(solve_line("t0", "w0"));
  EXPECT_CONTAINS(after, "\"path\":\"cached\"");
  EXPECT_EQ(objective_of(after), "\"objective\":47.5");
  EXPECT_CONTAINS(service.handle_line("{\"op\":\"stats\"}"), "\"spill_faults\":0");
}

TEST(ServiceFaults, RestoredSpilledSessionFallsBackColdLikeALiveOne) {
  // A spilled record restored from a checkpoint keeps a tree-only fallback
  // derived from its verified bytes, so one bad byte in the new segment
  // costs a cold re-solve, as it does for a record spilled live, instead
  // of losing the instance.
  const std::string spill = temp_subdir("restored_fallback_spill");
  const std::string ckpt = temp_subdir("restored_fallback_ckpt");
  {
    SolverService service(parse_service_config("spill_dir=" + spill));
    ASSERT_TRUE(contains(
        service.handle_line(submit_line("t0", "w0", paper_running_example())), "\"ok\":true"));
    ASSERT_EQ(objective_of(service.handle_line(solve_line("t0", "w0"))), "\"objective\":53");
    ASSERT_TRUE(
        contains(service.handle_line(evict_line("t0", "w0")), "\"fate\":\"spilled\""));
    service.checkpoint_to(ckpt);
  }

  SolverService restarted(parse_service_config("spill_dir=" + spill));
  ASSERT_TRUE(contains(
      restarted.handle_line("{\"op\":\"restore\",\"dir\":\"" + json_escape(ckpt) + "\"}"),
      "\"ok\":true"));
  const SpilledSlot slot = spilled_slot(restarted, "t0/w0");
  ASSERT_GT(slot.length, 0u);
  std::string damaged = read_slot(slot);
  ASSERT_EQ(damaged.size(), slot.length);
  damaged[damaged.size() / 2] = static_cast<char>(damaged[damaged.size() / 2] ^ 0x5A);
  write_slot(slot, damaged);

  const std::string reloaded = restarted.handle_line(solve_line("t0", "w0"));
  EXPECT_CONTAINS(reloaded, "\"ok\":true");
  EXPECT_CONTAINS(reloaded, "\"path\":\"initial\"");
  EXPECT_EQ(objective_of(reloaded), "\"objective\":53");
  EXPECT_EQ(read_file_bytes(spill + "/" + snapshot_file_name("t0", "w0") + ".bad"), damaged);
  const std::string stats = restarted.handle_line("{\"op\":\"stats\"}");
  EXPECT_CONTAINS(stats, "\"spill_faults\":1");
  EXPECT_CONTAINS(stats, "\"errors\":0");
}

TEST(ServiceFaults, DamagedManifestIsStillFatalToTheRestoreRequest) {
  const std::string ckpt = temp_subdir("bad_manifest");
  const CruTree tree = paper_running_example();
  {
    SolverService service;
    ASSERT_TRUE(
        contains(service.handle_line(submit_line("t0", "w0", tree)), "\"ok\":true"));
    ASSERT_TRUE(contains(service.handle_line(solve_line("t0", "w0")), "\"ok\":true"));
    service.checkpoint_to(ckpt);
  }
  const std::string manifest = ckpt + "/MANIFEST.tsc";
  const std::string intact = read_file_bytes(manifest);
  const std::string payload(
      unframe_payload("treesat_checkpoint", "v3", intact, "checkpoint"));
  const std::size_t rows = payload.find("resident ");
  ASSERT_NE(rows, std::string::npos);
  std::string huge = payload;  // hash-valid, declaring 10^13 resident rows
  huge.replace(rows, huge.find('\n', rows) - rows, "resident 10000000000000");

  const auto restore_fails = [&] {
    SolverService restarted;
    // The manifest is the source of truth: a damaged one is an error
    // response (the service keeps serving), not a silent partial restore.
    const std::string restored = restarted.handle_line(
        "{\"op\":\"restore\",\"dir\":\"" + json_escape(ckpt) + "\"}");
    EXPECT_CONTAINS(restored, "\"ok\":false");
    EXPECT_CONTAINS(restarted.handle_line(submit_line("t0", "w0", tree)), "\"ok\":true");
  };
  truncate_file(manifest);
  restore_fails();
  write_file_atomic(manifest, frame_payload("treesat_checkpoint", "v3", huge));
  restore_fails();
}

// --- the whole wall under stress traffic ---------------------------------

TEST(ServiceFaults, FaultWallPreservesEveryObjectiveUnderStressTraffic) {
  StressOptions options;
  options.seed = 0xFA11;
  options.tenants = 4;
  options.requests = 60;
  options.max_nodes = 192;
  options.p_churn = 0.15;
  const TrafficTrace trace = stress_trace(options);
  std::string text;
  for (const std::string& line : trace.lines) {
    text += line;
    text += '\n';
  }

  const auto replay = [&](const std::string& config) {
    SolverService service(parse_service_config(config));
    std::istringstream in(text);
    std::ostringstream out;
    const std::size_t errors = service.serve(in, out);
    EXPECT_EQ(errors, 0u) << config;
    return out.str();
  };

  const std::string clean_dir = temp_subdir("wall_clean");
  const std::string fault_dir = temp_subdir("wall_fault");
  const std::string clean = replay("shards=2,mem_budget=512k,spill_dir=" + clean_dir);
  const std::string fault =
      replay("shards=2,mem_budget=512k,spill_dir=" + fault_dir +
             ",fault=seed:11;spill_write:0.3;spill_read:0.3;truncate:0.3;hash_flip:0.3;"
             "dir_vanish:0.1");

  std::istringstream a(clean);
  std::istringstream b(fault);
  std::string la;
  std::string lb;
  std::size_t lines = 0;
  while (std::getline(a, la)) {
    ASSERT_TRUE(static_cast<bool>(std::getline(b, lb))) << "fault run answered fewer lines";
    ++lines;
    // Same request, same verdict; where both report an optimum it is the
    // same optimum (fault recovery re-solves exactly).
    EXPECT_EQ(contains(la, "\"ok\":true"), contains(lb, "\"ok\":true")) << la;
    const std::string oa = objective_of(la);
    const std::string ob = objective_of(lb);
    if (!oa.empty() && !ob.empty()) {
      EXPECT_EQ(oa, ob);
    }
  }
  EXPECT_FALSE(static_cast<bool>(std::getline(b, lb))) << "fault run answered extra lines";
  EXPECT_EQ(lines, trace.lines.size());
}

}  // namespace
}  // namespace treesat
