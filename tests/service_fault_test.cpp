// Fault wall for the warm tiers (storage/faults.hpp, session_store.cpp,
// checkpoint.cpp): deterministic injection schedules, real on-disk
// corruption, and the one contract every scenario must uphold -- a storage
// fault costs a cold re-solve (or, at worst, a cache miss) plus a counter,
// never a client-visible error, a wrong optimum, or a dead process. The
// degradation half of the overload story lives in service_test.cpp /
// service_determinism_test.cpp; this file is about the storage half.
#include <gtest/gtest.h>

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

/// Shared scenario: submit + solve + evict-to-spill, then damage the spill
/// file and solve again. The reload must be a cache miss that re-solves
/// from the retained tree -- same optimum, one spill_fault, a quarantined
/// .bad file -- never a client error.
void corrupt_spill_scenario(const std::string& tag, void (*damage)(const std::string&),
                            bool expect_quarantine = true) {
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

  const std::string path = spill + "/" + snapshot_file_name("t0", "w0");
  ASSERT_TRUE(std::filesystem::exists(path));
  damage(path);

  const std::string reloaded = service.handle_line(solve_line("t0", "w0"));
  EXPECT_CONTAINS(reloaded, "\"ok\":true");
  // A cache miss, not a warm reload: the session is rebuilt from the
  // retained tree-only snapshot, so the solve reports the initial path...
  EXPECT_CONTAINS(reloaded, "\"path\":\"initial\"");
  // ...and lands on the same optimum (the solver is exact either way).
  EXPECT_EQ(objective_of(reloaded), objective);
  // The damaged file is quarantined for post-mortems, not deleted (a
  // vanished file leaves nothing to quarantine).
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(std::filesystem::exists(path + ".bad"), expect_quarantine);

  const std::string stats = service.handle_line("{\"op\":\"stats\"}");
  EXPECT_CONTAINS(stats, "\"spill_faults\":1");
  EXPECT_CONTAINS(stats, "\"errors\":0");
}

TEST(ServiceFaults, CorruptSpillSnapshotIsACacheMissNotAnError) {
  corrupt_spill_scenario("corrupt", [](const std::string& path) { corrupt_file(path); });
}

TEST(ServiceFaults, TruncatedSpillSnapshotIsACacheMissNotAnError) {
  corrupt_spill_scenario("truncated", [](const std::string& path) { truncate_file(path); });
}

TEST(ServiceFaults, VanishedSpillFileIsACacheMissNotAnError) {
  corrupt_spill_scenario(
      "vanished", [](const std::string& path) { std::filesystem::remove(path); },
      /*expect_quarantine=*/false);
}

TEST(ServiceFaults, NonFiniteCachedFrontierIsQuarantinedAndReSolved) {
  // Hash-valid but poisoned: the spill file's colour cache carries a NaN
  // load and a -inf host. The reload's import rejects it, so the file is
  // quarantined and the instance re-solves to the same optimum instead of
  // folding the poisoned frontier into its next answer.
  corrupt_spill_scenario("nonfinite", [](const std::string& path) {
    SessionState state = read_snapshot_file(path);
    ASSERT_FALSE(state.colour_cache.empty());
    FrontierEntry& frontier = state.colour_cache.front().frontier;
    frontier.load.front() = std::numeric_limits<double>::quiet_NaN();
    frontier.host.front() = -std::numeric_limits<double>::infinity();
    write_snapshot_file(path, state);
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
  // The write failed: no snapshot file landed, only the in-memory record.
  EXPECT_FALSE(std::filesystem::exists(spill + "/" + snapshot_file_name("t0", "w0")));

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
  // and the spill still lands.
  ASSERT_TRUE(contains(service.handle_line(evict_line("t0", "w0")), "\"fate\":\"spilled\""));
  EXPECT_TRUE(std::filesystem::exists(spill + "/" + snapshot_file_name("t0", "w0")));

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
