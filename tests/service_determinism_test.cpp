// The service's byte-identity wall: replaying the same traffic trace must
// produce byte-identical response streams at any shard count. This is the
// serving-layer extension of the determinism contract of the executor and
// the DP engine, and it is what makes the committed golden trace in
// ci.sh's smoke stage meaningful: a response diff there is a behavior
// change, never scheduling noise.
//
// Two sweeps:
//   * shards=1/2/8 on an unconstrained store;
//   * shards=1/2/8 on a budget small enough to force LRU evictions (the
//     eviction order is where a per-shard LRU would silently diverge).
// Restart == no restart holds for the counters too: the Prometheus scrape's
// service families equal the stats document's values, across a checkpoint
// restart and an in-process restore.
//
// This suite runs under TSan in ci.sh.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"
#include "storage/checkpoint.hpp"
#include "workload/traffic.hpp"

namespace treesat {
namespace {

std::string trace_text(const TrafficTrace& trace) {
  std::string text;
  for (const std::string& line : trace.lines) {
    text += line;
    text += '\n';
  }
  return text;
}

/// Serves `trace` under `config` and returns the full response stream.
std::string replay(const std::string& trace, const std::string& config,
                   std::size_t* errors = nullptr) {
  SolverService service(parse_service_config(config));
  std::istringstream in(trace);
  std::ostringstream out;
  const std::size_t n = service.serve(in, out);
  if (errors != nullptr) *errors = n;
  return out.str();
}

TEST(ServiceDeterminism, ShardCountIsInvisible) {
  TrafficOptions options;
  options.seed = 0xD5EED;
  options.tenants = 3;
  options.ticks = 60;
  const std::string trace = trace_text(traffic_trace(options));

  std::size_t errors = 0;
  const std::string one = replay(trace, "shards=1", &errors);
  EXPECT_EQ(errors, 0u);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, replay(trace, "shards=2"));
  EXPECT_EQ(one, replay(trace, "shards=8"));
}

TEST(ServiceDeterminism, EvictionOrderIsShardCountInvariant) {
  TrafficOptions options;
  options.seed = 0xE71C7;
  options.tenants = 4;  // more live instances than the budget can hold
  options.ticks = 60;
  options.p_churn = 0.08;
  const std::string trace = trace_text(traffic_trace(options));

  // The budget fits roughly two warm sessions (the four tenants peak near 45k), so the store is constantly
  // evicting; a per-shard (rather than global) LRU would pick different
  // victims at different shard counts and the streams would diverge.
  const std::string config = ",mem_budget=28k,fail_fast=false";
  const std::string one = replay(trace, "shards=1" + config);
  EXPECT_EQ(one, replay(trace, "shards=2" + config));
  EXPECT_EQ(one, replay(trace, "shards=8" + config));

  // The constrained replay actually exercised eviction (otherwise this
  // test is vacuous).
  SolverService probe(parse_service_config("shards=2" + config));
  std::istringstream in(trace);
  std::ostringstream out;
  static_cast<void>(probe.serve(in, out));
  EXPECT_GT(probe.telemetry().totals().lru_evictions, 0u);
}

TEST(ServiceDeterminism, SpillTierKeepsShardCountInvariance) {
  // The eviction-order sweep again, but with victims *spilling* instead of
  // dropping: reload-on-miss changes which requests run warm, so a
  // shard-dependent victim order would now diverge twice over (the spill
  // population and the reload moments). Each replay gets its own spill
  // directory; the directory path never appears in a response, so the
  // streams must still match byte for byte.
  TrafficOptions options;
  options.seed = 0xE71C7;
  options.tenants = 4;
  options.ticks = 60;
  options.p_churn = 0.08;
  const std::string trace = trace_text(traffic_trace(options));

  const auto config = [](std::size_t shards) {
    const std::string dir = ::testing::TempDir() + "/treesat_det_spill_s" +
                            std::to_string(shards);
    std::filesystem::remove_all(dir);
    return "shards=" + std::to_string(shards) +
           ",mem_budget=28k,fail_fast=false,spill_dir=" + dir;
  };
  const std::string one = replay(trace, config(1));
  EXPECT_EQ(one, replay(trace, config(2)));
  EXPECT_EQ(one, replay(trace, config(8)));

  // The sweep actually spilled and reloaded (otherwise it is the plain
  // eviction test again).
  SolverService probe(parse_service_config(config(2)));
  std::istringstream in(trace);
  std::ostringstream out;
  static_cast<void>(probe.serve(in, out));
  EXPECT_GT(probe.telemetry().totals().spills, 0u);
  EXPECT_GT(probe.telemetry().totals().spill_reloads, 0u);
}

TEST(ServiceDeterminism, CheckpointRestartResumesByteIdentically) {
  // The zero-rewarm restart contract: serve the head of a trace, write a
  // checkpoint, restore it into a *fresh* service, serve the tail there --
  // head + tail responses must equal the single-process replay exactly.
  // (ci.sh re-proves this end to end through the treesat_serve binary.)
  TrafficOptions options;
  options.seed = 0xC4EC;
  options.tenants = 3;
  options.ticks = 50;
  const TrafficTrace trace = traffic_trace(options);
  const std::vector<std::string>& lines = trace.lines;
  ASSERT_GT(lines.size(), 10u);
  const std::size_t split = lines.size() / 2;

  std::string head, tail, whole;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    (i < split ? head : tail) += lines[i] + "\n";
    whole += lines[i] + "\n";
  }

  const std::string config = "shards=2,fail_fast=false";
  const std::string golden = replay(whole, config);

  const std::string dir = ::testing::TempDir() + "/treesat_det_ckpt";
  std::filesystem::remove_all(dir);

  SolverService first(parse_service_config(config));
  std::istringstream head_in(head);
  std::ostringstream head_out;
  static_cast<void>(first.serve(head_in, head_out));
  first.checkpoint_to(dir);

  SolverService second(parse_service_config(config));
  second.restore_from(dir);
  std::istringstream tail_in(tail);
  std::ostringstream tail_out;
  static_cast<void>(second.serve(tail_in, tail_out));

  EXPECT_EQ(head_out.str() + tail_out.str(), golden);

  // The restart resumed *warm*: the restored service must not have had to
  // run a single initial or cold solve the one-process run did not.
  SolverService oracle(parse_service_config(config));
  std::istringstream whole_in(whole);
  std::ostringstream whole_out;
  static_cast<void>(oracle.serve(whole_in, whole_out));
  const TenantTelemetry a = oracle.telemetry().totals();
  const TenantTelemetry b = second.telemetry().totals();
  EXPECT_EQ(b.requests, a.requests);
  EXPECT_EQ(b.warm_hits, a.warm_hits);
  EXPECT_EQ(b.initial_solves, a.initial_solves);
  EXPECT_EQ(b.cold_solves, a.cold_solves);
}

/// The scrape's service families and the stats field each one carries,
/// listed here rather than read from the library's tables. A totals field
/// is read from the stats document's "totals" block, the rest from its
/// gauge block.
struct ScrapedField {
  const char* family;
  const char* field;
  bool in_totals;
};

constexpr ScrapedField kScrapedFields[] = {
    {"treesat_requests_total", "requests", false},
    {"treesat_request_errors_total", "errors", false},
    {"treesat_initial_solves_total", "initial_solves", true},
    {"treesat_warm_hits_total", "warm_hits", true},
    {"treesat_cold_solves_total", "cold_solves", true},
    {"treesat_degraded_total", "degraded", true},
    {"treesat_rejected_total", "rejected", true},
    {"treesat_spills_total", "spills", false},
    {"treesat_spill_reloads_total", "spill_reloads", false},
    {"treesat_spill_faults_total", "spill_faults", false},
    {"treesat_restore_faults_total", "restore_faults", false},
    {"treesat_store_bytes_used", "bytes_used", false},
    {"treesat_store_entries", "entries", false},
    {"treesat_store_sessions", "sessions", false},
    {"treesat_store_spill_bytes", "spill_bytes", false},
};

/// A registry installed for one test's lifetime.
struct InstalledRegistry {
  obs::MetricsRegistry registry;
  InstalledRegistry() { obs::install_metrics(&registry); }
  ~InstalledRegistry() { obs::install_metrics(nullptr); }
  InstalledRegistry(const InstalledRegistry&) = delete;
  InstalledRegistry& operator=(const InstalledRegistry&) = delete;
};

/// One reading of both views: a stats response, then the deterministic
/// scrape, refreshed as --metrics-out refreshes it.
struct Reading {
  std::string stats;
  std::string scrape;
};

Reading read_both(SolverService& service, const obs::MetricsRegistry& registry) {
  Reading r;
  r.stats = service.handle_line("{\"op\":\"stats\"}");
  static_cast<void>(service.telemetry());
  r.scrape = registry.exposition(/*include_wallclock=*/false);
  return r;
}

std::uint64_t stats_value(const std::string& stats, const ScrapedField& f) {
  const std::size_t block = stats.find(f.in_totals ? "\"totals\":{" : "\"stats\":{");
  const std::string key = std::string("\"") + f.field + "\":";
  const std::size_t at = stats.find(key, block);
  EXPECT_NE(at, std::string::npos) << f.field;
  return at == std::string::npos ? 0 : std::stoull(stats.substr(at + key.size()));
}

/// A family's value in the scrape; 0 when it is absent (a counter family
/// appears with its first non-zero value).
std::uint64_t scraped_value(const std::string& scrape, const char* family) {
  const std::string key = std::string("\n") + family + " ";
  const std::string text = "\n" + scrape;
  const std::size_t at = text.find(key);
  return at == std::string::npos ? 0 : std::stoull(text.substr(at + key.size()));
}

void expect_scrape_equals_stats(const Reading& r, const char* where) {
  for (const ScrapedField& f : kScrapedFields) {
    EXPECT_EQ(scraped_value(r.scrape, f.family), stats_value(r.stats, f))
        << f.family << " " << where;
  }
}

/// The golden trace's request lines (comments and blank lines dropped).
std::vector<std::string> golden_request_lines() {
  std::ifstream file(TREESAT_SOURCE_DIR "/tests/golden/service_trace.jsonl");
  EXPECT_TRUE(file) << "golden trace missing";
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(file, line)) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

TEST(ServiceDeterminism, ScrapeEqualsStatsAcrossACheckpointRestart) {
  // The service counts each event once, in its telemetry and store, and the
  // scrape's service families are written from those counters. A restored
  // process's scrape therefore resumes where the checkpoint left off, as
  // stats does, instead of counting only the events it served itself.
  const std::vector<std::string> lines = golden_request_lines();
  ASSERT_GT(lines.size(), 10u);
  const std::size_t split = lines.size() / 2;
  const std::string base = ::testing::TempDir() + "/treesat_det_scrape";
  std::filesystem::remove_all(base);
  const auto config = [&base](const char* spill) {
    return parse_service_config("mem_budget=10k,spill_dir=" + base + "/" + spill);
  };

  Reading whole;
  {
    InstalledRegistry installed;
    SolverService service(config("whole"));
    for (const std::string& line : lines) static_cast<void>(service.handle_line(line));
    whole = read_both(service, installed.registry);
  }
  expect_scrape_equals_stats(whole, "single process");
  // The budget made the replay spill and reload, so the spill families are
  // non-zero and a scrape that restarted from zero could not match.
  EXPECT_GT(scraped_value(whole.scrape, "treesat_spills_total"), 0u);
  EXPECT_GT(scraped_value(whole.scrape, "treesat_spill_reloads_total"), 0u);

  {
    InstalledRegistry installed;
    SolverService head(config("head"));
    for (std::size_t i = 0; i < split; ++i) static_cast<void>(head.handle_line(lines[i]));
    head.checkpoint_to(base + "/ckpt");
  }
  InstalledRegistry installed;
  SolverService tail(config("tail"));
  tail.restore_from(base + "/ckpt");
  for (std::size_t i = split; i < lines.size(); ++i) {
    static_cast<void>(tail.handle_line(lines[i]));
  }
  const Reading restored = read_both(tail, installed.registry);
  expect_scrape_equals_stats(restored, "after the restart");
  for (const ScrapedField& f : kScrapedFields) {
    EXPECT_EQ(scraped_value(restored.scrape, f.family), scraped_value(whole.scrape, f.family))
        << f.family;
  }
}

TEST(ServiceDeterminism, TenantlessDeadlineRejectionCountsInNeitherView) {
  // A rejection is a tenant counter, so a solve that names no tenant and
  // is refused by the deadline is an error in both views and a rejection
  // in neither. With a tenant, both views count it.
  InstalledRegistry installed;
  SolverService service(parse_service_config("deadline_ms=1e-9,fail_fast=false"));
  const std::string refused = service.handle_line("{\"op\":\"solve\",\"instance\":\"w0\"}");
  EXPECT_NE(refused.find("deadline"), std::string::npos) << refused;
  const Reading tenantless = read_both(service, installed.registry);
  expect_scrape_equals_stats(tenantless, "after a tenant-less rejection");
  EXPECT_EQ(scraped_value(tenantless.scrape, "treesat_rejected_total"), 0u);
  EXPECT_EQ(scraped_value(tenantless.scrape, "treesat_request_errors_total"), 1u);

  static_cast<void>(service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"));
  const Reading tenant = read_both(service, installed.registry);
  expect_scrape_equals_stats(tenant, "after a tenant's rejection");
  EXPECT_EQ(scraped_value(tenant.scrape, "treesat_rejected_total"), 1u);
}

TEST(ServiceDeterminism, InProcessRestoreMovesTheScrapeBackWithStats) {
  // Restoring a checkpoint taken before the first spill moves stats'
  // spill counters back to 0; the scrape's families follow, and a family
  // that already exists is written with its 0.
  const std::vector<std::string> lines = golden_request_lines();
  ASSERT_GT(lines.size(), 2u);
  const std::string base = ::testing::TempDir() + "/treesat_det_scrape_rewind";
  std::filesystem::remove_all(base);
  InstalledRegistry installed;
  SolverService service(parse_service_config("mem_budget=10k,spill_dir=" + base + "/spill"));
  static_cast<void>(service.handle_line(lines[0]));
  static_cast<void>(service.handle_line(lines[1]));
  ASSERT_EQ(service.telemetry().spills, 0u);
  service.checkpoint_to(base + "/ckpt");
  for (std::size_t i = 2; i < lines.size(); ++i) static_cast<void>(service.handle_line(lines[i]));
  const Reading spilled = read_both(service, installed.registry);
  expect_scrape_equals_stats(spilled, "before the restore");
  ASSERT_GT(scraped_value(spilled.scrape, "treesat_spills_total"), 0u);

  const std::string restored =
      service.handle_line("{\"op\":\"restore\",\"dir\":\"" + base + "/ckpt\"}");
  EXPECT_NE(restored.find("\"ok\":true"), std::string::npos) << restored;
  const Reading rewound = read_both(service, installed.registry);
  expect_scrape_equals_stats(rewound, "after the restore");
  EXPECT_NE(rewound.scrape.find("\ntreesat_spills_total 0\n"), std::string::npos);
}

/// Every tenant counter, listed here rather than read from the library's
/// own table, so a table or codec that drops or swaps a column cannot vouch
/// for itself.
constexpr std::size_t TenantTelemetry::*kCounters[] = {
    &TenantTelemetry::requests,           &TenantTelemetry::errors,
    &TenantTelemetry::submits,            &TenantTelemetry::solves,
    &TenantTelemetry::perturbs,           &TenantTelemetry::evict_requests,
    &TenantTelemetry::initial_solves,     &TenantTelemetry::warm_hits,
    &TenantTelemetry::cold_solves,        &TenantTelemetry::lru_evictions,
    &TenantTelemetry::explicit_evictions, &TenantTelemetry::spills,
    &TenantTelemetry::spill_reloads,      &TenantTelemetry::degraded,
    &TenantTelemetry::rejected,
};

/// Gives each counter and three method slots of `t` a distinct non-zero
/// value above `base`.
void give_distinct_counters(TenantTelemetry& t, std::size_t base) {
  std::size_t next = base;
  for (const auto counter : kCounters) t.*counter = ++next;
  for (const SolveMethod m :
       {SolveMethod::kColouredSsb, SolveMethod::kParetoDp, SolveMethod::kGreedy}) {
    t.method_counts[static_cast<std::size_t>(m)] = ++next;
  }
}

void expect_same_counters(const TenantTelemetry& got, const TenantTelemetry& want) {
  for (std::size_t i = 0; i < std::size(kCounters); ++i) {
    EXPECT_EQ(got.*kCounters[i], want.*kCounters[i]) << "counter " << i;
  }
  EXPECT_EQ(got.method_counts, want.method_counts);
}

TEST(ServiceDeterminism, EveryTenantCounterSurvivesACheckpoint) {
  // The restart replay above leaves degraded, rejected, lru_evictions,
  // spills, spill_reloads and the overflow bucket at 0, so a checkpoint row
  // codec that swapped two of those columns would pass it. Here every
  // counter holds a distinct value, in a tracked tenant and in overflow.
  ServiceTelemetry telemetry;
  telemetry.requests = 9001;
  telemetry.errors = 77;
  give_distinct_counters(telemetry.tenants["t0"], 100);
  give_distinct_counters(telemetry.overflow, 200);

  const std::string dir = ::testing::TempDir() + "/treesat_det_counters";
  std::filesystem::remove_all(dir);
  write_checkpoint(dir, SessionStore(1, 0), telemetry, 42);
  const RestoredService restored = read_checkpoint(dir, 1, 0, "", 0);

  EXPECT_EQ(restored.next_id, 42u);
  EXPECT_EQ(restored.telemetry.requests, telemetry.requests);
  EXPECT_EQ(restored.telemetry.errors, telemetry.errors);
  ASSERT_EQ(restored.telemetry.tenants.size(), 1u);
  ASSERT_EQ(restored.telemetry.tenants.count("t0"), 1u);
  expect_same_counters(restored.telemetry.tenants.at("t0"), telemetry.tenants.at("t0"));
  expect_same_counters(restored.telemetry.overflow, telemetry.overflow);
  EXPECT_EQ(service_telemetry_to_json(restored.telemetry), service_telemetry_to_json(telemetry));
}

TEST(ServiceDeterminism, PerRequestPlanMatchesTheServiceDefault) {
  TrafficOptions base;
  base.seed = 0x7D27;
  base.tenants = 2;
  base.ticks = 40;
  base.plan = "pareto-dp";

  // Responses never echo the plan, so naming it on every request must
  // answer exactly like the service-default route.
  const std::string per_request = replay(trace_text(traffic_trace(base)), "shards=2");
  TrafficOptions none = base;
  none.plan.clear();
  EXPECT_EQ(per_request, replay(trace_text(traffic_trace(none)), "shards=2,plan=pareto-dp"));
}

TEST(ServiceDeterminism, ForcedDegradationIsShardCountInvariant) {
  // The overload story's determinism leg: "degrade":true request stamps
  // force the degraded path without any wall clock, so a stress trace with
  // recorded degrade decisions must byte-replay at any shard count --
  // degraded responses, warm-start provenance and telemetry included.
  StressOptions options;
  options.seed = 0xDE64;
  options.tenants = 4;
  options.requests = 80;
  options.max_nodes = 256;
  options.p_degrade = 0.35;
  const TrafficTrace trace = stress_trace(options);
  ASSERT_GT(trace.degrade_flags, 0u);
  const std::string text = trace_text(trace);

  std::size_t errors = 0;
  const std::string one = replay(text, "shards=1,degrade=greedy", &errors);
  EXPECT_EQ(errors, 0u);
  EXPECT_EQ(one, replay(text, "shards=2,degrade=greedy"));
  EXPECT_EQ(one, replay(text, "shards=8,degrade=greedy"));

  // The sweep actually degraded, and flagged every degraded response.
  SolverService probe(parse_service_config("shards=2,degrade=greedy"));
  std::istringstream in(text);
  std::ostringstream out;
  static_cast<void>(probe.serve(in, out));
  EXPECT_EQ(probe.telemetry().totals().degraded, trace.degrade_flags);
  std::size_t flagged = 0;
  std::string line;
  std::istringstream responses(out.str());
  while (std::getline(responses, line)) {
    if (line.find("\"degraded\":true") != std::string::npos) ++flagged;
  }
  EXPECT_EQ(flagged, trace.degrade_flags);
}

TEST(ServiceDeterminism, DeadlineDegradationAnswersEverything) {
  // A deadline hostile enough to reject nearly all bare solver work must
  // reject *nothing* once degrade= is armed: every trip of the admission
  // budget becomes a cheap-heuristic answer instead of an error. (Which
  // requests trip is wall-clock-dependent, so this asserts outcomes --
  // zero errors, zero rejections -- not byte identity.)
  StressOptions options;
  options.seed = 0x51A;
  options.tenants = 3;
  options.requests = 60;
  options.max_nodes = 256;
  const std::string text = trace_text(stress_trace(options));

  SolverService service(
      parse_service_config("shards=2,fail_fast=false,deadline_ms=0.001,degrade=greedy"));
  std::istringstream in(text);
  std::ostringstream out;
  EXPECT_EQ(service.serve(in, out), 0u);
  const TenantTelemetry totals = service.telemetry().totals();
  EXPECT_EQ(totals.rejected, 0u);
  EXPECT_GT(totals.degraded, 0u);
  EXPECT_EQ(totals.goodput_ratio(), 1.0);
}

TEST(ServiceDeterminism, WarmTrafficActuallyRunsWarm) {
  // The determinism sweeps above would pass even if every request
  // cold-solved; pin the warm-hit ratio the throughput bench gates on.
  TrafficOptions options;
  options.seed = 0xD5EED;
  options.tenants = 3;
  options.ticks = 80;
  const std::string trace = trace_text(traffic_trace(options));

  SolverService service(parse_service_config("shards=4"));
  std::istringstream in(trace);
  std::ostringstream out;
  EXPECT_EQ(service.serve(in, out), 0u);
  const TenantTelemetry totals = service.telemetry().totals();
  EXPECT_GT(totals.warm_hits, 0u);
  EXPECT_GE(totals.warm_hit_ratio(), 0.5) << "warm " << totals.warm_hits << " vs cold "
                                          << totals.cold_solves;
}

TEST(ServiceDeterminism, GeneratedChurnNeverSubmitsARefusedTree) {
  // perfbench's small_drift seed 2901 composes 16 traffic_trace groups of
  // 16 tenants and 500 ticks, seeded by successive draws of Rng(2901). In
  // its tenth group, tenant t0's drift stream loses satellites until its
  // 3-node tree names satellite 3, and a churn there re-submitted that tree,
  // which the service refuses. Every generated line must be answered ok.
  Rng seeds(2901);
  std::uint64_t seed = 0;
  for (int group = 0; group < 10; ++group) seed = seeds();
  TrafficOptions options;
  options.seed = seed;
  options.tenants = 16;
  options.ticks = 500;
  const TrafficTrace trace = traffic_trace(options);
  SolverService service;
  std::size_t refused = 0;
  for (const std::string& line : trace.lines) {
    const std::string response = service.handle_line(line);
    if (response.find("\"ok\":true") == std::string::npos) {
      ADD_FAILURE() << line << "\n -> " << response;
      if (++refused == 3) break;
    }
  }
  EXPECT_EQ(refused, 0u);
  EXPECT_GT(trace.evicts, 0u) << "the trace must still churn";
}

}  // namespace
}  // namespace treesat
