// Protocol-semantics wall for the solver service (service/service.hpp):
// submit/solve/perturb/stats/evict round trips, warm/cached/cold paths,
// admission control, LRU eviction under a byte budget, deadline rejection,
// fail-fast streams, and the error taxonomy (every malformed or impossible
// request must become one descriptive {"ok":false} response, never a crash
// and never a torn-down service). Responses are checked by substring: the
// response grammar is part of the protocol contract, and the byte-level
// half of it is locked down by service_determinism_test.cpp and the ci.sh
// golden-trace stage.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/format.hpp"
#include "core/incremental.hpp"
#include "core/registry.hpp"
#include "core/solver.hpp"
#include "io/json.hpp"
#include "service/service.hpp"
#include "storage/checkpoint.hpp"
#include "storage/faults.hpp"
#include "tree/serialize.hpp"
#include "workload/scenarios.hpp"

namespace treesat {
namespace {

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

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// A fresh per-test scratch directory (spill tiers, checkpoints). Wiped up
/// front so a previous run's files cannot leak into this one.
std::string temp_subdir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/treesat_service_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

#define EXPECT_CONTAINS(response, needle) \
  EXPECT_TRUE(contains(response, needle)) << "response: " << response

TEST(Service, SubmitSolveRoundTrip) {
  SolverService service;
  const CruTree tree = paper_running_example();

  const std::string submitted = service.handle_line(submit_line("t0", "w0", tree));
  EXPECT_CONTAINS(submitted, "\"op\":\"submit\",\"ok\":true");
  EXPECT_CONTAINS(submitted, "\"nodes\":" + std::to_string(tree.size()));
  EXPECT_CONTAINS(submitted, "\"replaced\":false");

  const std::string solved =
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}");
  EXPECT_CONTAINS(solved, "\"ok\":true");
  EXPECT_CONTAINS(solved, "\"path\":\"initial\"");
  EXPECT_CONTAINS(solved, "\"method\":\"pareto-dp\"");
  EXPECT_CONTAINS(solved, "\"exact\":true");

  // The served objective is the library's own optimum, byte for byte.
  const Colouring colouring(tree);
  const SolveReport direct = solve(colouring, SolvePlan::pareto_dp());
  EXPECT_CONTAINS(solved, "\"objective\":" + shortest_round_trip(direct.objective_value));

  // A repeat under the same plan is served from the warm session.
  const std::string again =
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}");
  EXPECT_CONTAINS(again, "\"path\":\"cached\"");
  EXPECT_CONTAINS(again, "\"objective\":" + shortest_round_trip(direct.objective_value));

  // Result-invisible knobs (the executor keys) are not a plan change: the
  // warm session survives a client re-tuning parallelism.
  const std::string retuned = service.handle_line(
      "{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\","
      "\"plan\":\"pareto-dp:threads=8\"}");
  EXPECT_CONTAINS(retuned, "\"path\":\"cached\"");

  // A different plan cannot reuse the session: rebuilt cold.
  const std::string replanned = service.handle_line(
      "{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\",\"plan\":\"exhaustive\"}");
  EXPECT_CONTAINS(replanned, "\"path\":\"cold\"");
  EXPECT_CONTAINS(replanned, "\"method\":\"exhaustive\"");
  EXPECT_CONTAINS(replanned, "plan changed");
}

TEST(Service, TenantTelemetryIsBounded) {
  // Rotating tenant names must not grow telemetry (or the stats document)
  // without bound: past the cap, new tenants aggregate into "(overflow)".
  SolverService service;
  const std::size_t over = ServiceTelemetry::kMaxTrackedTenants + 40;
  for (std::size_t k = 0; k < over; ++k) {
    std::string line = "{\"op\":\"stats\",\"tenant\":\"rot";
    line += std::to_string(k);
    line += "\"}";
    static_cast<void>(service.handle_line(line));
  }
  const ServiceTelemetry& t = service.telemetry();
  EXPECT_EQ(t.tenants.size(), ServiceTelemetry::kMaxTrackedTenants);
  EXPECT_EQ(t.overflow.requests, 40u);
  EXPECT_EQ(t.totals().requests, over);
  EXPECT_CONTAINS(service.handle_line("{\"op\":\"stats\"}"), "\"tenant\":\"(overflow)\"");
  // A *scoped* stats response never leaks the cross-tenant overflow block
  // (here the polled tenant itself lives past the cap: gauges only).
  const std::string scoped = service.handle_line(
      "{\"op\":\"stats\",\"tenant\":\"rot1050\"}");
  EXPECT_FALSE(contains(scoped, "(overflow)")) << scoped;
  EXPECT_FALSE(contains(scoped, "\"tenant\":\"rot0\"")) << scoped;
}

TEST(Service, PerturbWarmPathMatchesColdResolve) {
  SolverService service;
  const CruTree tree = paper_running_example();
  static_cast<void>(service.handle_line(submit_line("t0", "w0", tree)));
  static_cast<void>(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"));

  // One satellite's profile drifts: the other colours' cached frontiers
  // survive, so the session re-solves warm...
  const std::string perturbed = service.handle_line(
      "{\"op\":\"perturb\",\"tenant\":\"t0\",\"instance\":\"w0\","
      "\"kind\":\"satellite_drift\",\"satellite\":0,\"host_scale\":1.25,"
      "\"sat_scale\":0.8,\"comm_scale\":1.1}");
  EXPECT_CONTAINS(perturbed, "\"ok\":true");
  EXPECT_CONTAINS(perturbed, "\"solved\":true");
  EXPECT_CONTAINS(perturbed, "\"path\":\"warm\"");
  EXPECT_CONTAINS(perturbed, "\"cold_reason\":\"\"");

  // ...and the warm optimum is byte-identical to a cold solve of the
  // perturbed instance (the session's documented identity guarantee,
  // observed through the protocol).
  ResolveSession reference{CruTree(tree)};
  reference.resolve(Perturbation::satellite_drift(SatelliteId{std::size_t{0}}, 1.25, 0.8, 1.1));
  EXPECT_CONTAINS(perturbed, "\"objective\":" + shortest_round_trip(
                                                    reference.current().objective_value));
}

/// The number after `"field":` in a response.
std::string field_value(const std::string& response, const std::string& field) {
  const std::size_t at = response.find("\"" + field + "\":");
  if (at == std::string::npos) return "";
  const std::size_t begin = at + field.size() + 3;
  return response.substr(begin, response.find_first_of(",}", begin) - begin);
}

TEST(Service, OverflowingCostsFailTypedAndKeepTheWarmState) {
  // Costs past the tree's cost rule fail the request with a precondition
  // error and change nothing: a second 1e300 drift would make +inf costs,
  // and its failure must leave the session, its cache and its spill record
  // as they were.
  const std::string spill = temp_subdir("overflow");
  SolverService service(parse_service_config("mem_budget=64m,spill_dir=" + spill));
  const Scenario scenario = epilepsy_scenario();
  const CruTree tree = scenario.workload.lower(scenario.platform);
  static_cast<void>(service.handle_line(submit_line("t0", "w0", tree)));
  static_cast<void>(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"));
  const std::string drift =
      "{\"op\":\"perturb\",\"tenant\":\"t0\",\"instance\":\"w0\","
      "\"kind\":\"satellite_drift\",\"satellite\":0,\"host_scale\":1e300,"
      "\"sat_scale\":1e300,\"comm_scale\":1e300}";
  EXPECT_CONTAINS(service.handle_line(drift), "\"ok\":true");
  const std::string solve = "{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}";
  const std::string before = service.handle_line(solve);
  EXPECT_CONTAINS(before, "\"path\":\"cached\"");

  const std::string overflow = service.handle_line(drift);
  EXPECT_CONTAINS(overflow, "\"ok\":false");
  EXPECT_CONTAINS(overflow, "precondition failed");
  EXPECT_CONTAINS(overflow, "finite");

  const std::string after = service.handle_line(solve);
  EXPECT_CONTAINS(after, "\"path\":\"cached\"");
  EXPECT_EQ(field_value(after, "bytes"), field_value(before, "bytes"));
  EXPECT_EQ(field_value(after, "objective"), field_value(before, "objective"));
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "\"fate\":\"spilled\"");
  const std::string reloaded = service.handle_line(solve);
  EXPECT_CONTAINS(reloaded, "\"path\":\"cached\"");
  EXPECT_EQ(field_value(reloaded, "objective"), field_value(before, "objective"));

  // Each cost finite, their sum past DBL_MAX: refused at submit.
  const std::string text =
      "cru_tree v1\n0 - compute root 1.7e308 0 0 -\n1 0 compute a 0 0 1.7e308 -\n"
      "2 1 sensor s 0 0 1.7e308 0\n";
  std::string line = "{\"op\":\"submit\",\"tenant\":\"t0\",\"instance\":\"big\",\"tree\":\"";
  line += json_escape(text);
  line += "\"}";
  const std::string refused = service.handle_line(line);
  EXPECT_CONTAINS(refused, "\"ok\":false");
  EXPECT_CONTAINS(refused, "DBL_MAX");
}

/// A plan whose coefficients overflow on the instance fails typed, before
/// `method` runs, and changes nothing. The tree passes the cost rule (its
/// costs total ~2e12 after the drift), but 1e300 times that is +inf, and
/// no method's search can rank cuts whose objectives are all infinite.
void overflowing_objective_scenario(const std::string& method) {
  SolverService service(parse_service_config("fail_fast=false"));
  const Scenario scenario = epilepsy_scenario();
  const CruTree tree = scenario.workload.lower(scenario.platform);
  ASSERT_TRUE(contains(service.handle_line(submit_line("t0", "w0", tree)), "\"ok\":true"));
  const std::string solve_default = "{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}";
  ASSERT_TRUE(contains(service.handle_line(solve_default), "\"ok\":true"));
  const std::string drifted = service.handle_line(
      "{\"op\":\"perturb\",\"tenant\":\"t0\",\"instance\":\"w0\",\"kind\":\"global_drift\","
      "\"host_scale\":1e12,\"sat_scale\":1e12,\"comm_scale\":1e12}");
  ASSERT_TRUE(contains(drifted, "\"ok\":true"));

  const std::string spec = method + ":s_coeff=1e300,b_coeff=1e300";
  const std::string refused = service.handle_line(
      "{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\",\"plan\":\"" + spec + "\"}");
  EXPECT_CONTAINS(refused, "\"ok\":false");
  EXPECT_CONTAINS(refused, "precondition failed");
  EXPECT_CONTAINS(refused, "must be finite");
  EXPECT_FALSE(contains(refused, "invariant")) << refused;
  // The same refusal, typed, from the library facade.
  const CruTree big = apply_perturbation(tree, Perturbation::global_drift(1e12, 1e12, 1e12));
  EXPECT_THROW(static_cast<void>(solve(Colouring(big), parse_plan(spec))), InvalidArgument);

  // The warm session is untouched: the default plan is still served cached.
  const std::string after = service.handle_line(solve_default);
  EXPECT_CONTAINS(after, "\"path\":\"cached\"");
  EXPECT_EQ(field_value(after, "objective"), field_value(drifted, "objective"));
}

TEST(Service, OverflowingObjectiveFailsTypedOnParetoDp) {
  overflowing_objective_scenario("pareto-dp");
}

TEST(Service, OverflowingObjectiveFailsTypedOnColouredSsb) {
  overflowing_objective_scenario("coloured-ssb");
}

TEST(Service, OverflowingObjectiveFailsTypedOnExhaustive) {
  overflowing_objective_scenario("exhaustive");
}

TEST(Service, OverflowingObjectiveFailsTypedOnGreedy) {
  overflowing_objective_scenario("greedy");
}

TEST(Service, OverflowingObjectiveFailsTypedOnLocalSearch) {
  overflowing_objective_scenario("local-search");
}

TEST(Service, OverflowingObjectiveFailsTypedOnTheDegradedPath) {
  // The degrade fallback runs its heuristic without a plan, on the request's
  // objective when no session exists yet; it refuses the same overflow.
  SolverService service(parse_service_config("fail_fast=false"));
  const Scenario scenario = epilepsy_scenario();
  ASSERT_TRUE(contains(
      service.handle_line(submit_line("t0", "w0", scenario.workload.lower(scenario.platform))),
      "\"ok\":true"));
  ASSERT_TRUE(contains(service.handle_line(
                           "{\"op\":\"perturb\",\"tenant\":\"t0\",\"instance\":\"w0\","
                           "\"kind\":\"global_drift\",\"host_scale\":1e12,\"sat_scale\":1e12,"
                           "\"comm_scale\":1e12}"),
                       "\"solved\":false"));
  const std::string refused = service.handle_line(
      "{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\",\"degrade\":true,"
      "\"plan\":\"greedy:s_coeff=1e300,b_coeff=1e300\"}");
  EXPECT_CONTAINS(refused, "\"ok\":false");
  EXPECT_CONTAINS(refused, "precondition failed");
  EXPECT_FALSE(contains(refused, "invariant")) << refused;
  EXPECT_CONTAINS(service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
                  "\"path\":\"initial\"");
}

TEST(Service, PerturbBeforeSolveEvolvesTheStoredTree) {
  SolverService service;
  const CruTree tree = paper_running_example();
  static_cast<void>(service.handle_line(submit_line("t0", "w0", tree)));

  const std::string perturbed = service.handle_line(
      "{\"op\":\"perturb\",\"tenant\":\"t0\",\"instance\":\"w0\","
      "\"kind\":\"global_drift\",\"host_scale\":1.5}");
  EXPECT_CONTAINS(perturbed, "\"ok\":true");
  EXPECT_CONTAINS(perturbed, "\"solved\":false");

  // The eventual first solve sees the perturbed instance.
  const CruTree drifted =
      apply_perturbation(tree, Perturbation::global_drift(1.5, 1.0, 1.0));
  const Colouring colouring(drifted);
  const SolveReport direct = solve(colouring, SolvePlan::pareto_dp());
  const std::string solved =
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}");
  EXPECT_CONTAINS(solved, "\"path\":\"initial\"");
  EXPECT_CONTAINS(solved, "\"objective\":" + shortest_round_trip(direct.objective_value));
}

TEST(Service, EvictAndUnknownInstance) {
  SolverService service;
  static_cast<void>(service.handle_line(submit_line("t0", "w0", paper_running_example())));

  const std::string evicted =
      service.handle_line("{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\"}");
  EXPECT_CONTAINS(evicted, "\"evicted\":true");
  const std::string again =
      service.handle_line("{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\"}");
  EXPECT_CONTAINS(again, "\"evicted\":false");

  const std::string solved =
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}");
  EXPECT_CONTAINS(solved, "\"ok\":false");
  EXPECT_CONTAINS(solved, "unknown instance");
}

TEST(Service, ErrorTaxonomyKeepsServing) {
  SolverService service;
  const struct {
    const char* line;
    const char* expect;
  } kBad[] = {
      {"not json at all", "request parse"},
      {"{\"op\":\"solve\"", "unexpected end of input"},
      {"{\"op\":\"warp\",\"tenant\":\"t0\"}", "unknown op"},
      {"{\"op\":\"solve\",\"tenant\":\"t0\"}", "missing field 'instance'"},
      {"{\"op\":\"submit\",\"instance\":\"w0\",\"tree\":\"x\"}", "needs a tenant"},
      {"{\"op\":\"solve\",\"tenant\":\"a/b\",\"instance\":\"w0\"}", "'/'-free"},
      {"{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\",\"plan\":\"dijkstra\"}",
       "unknown method"},
      {"{\"op\":\"submit\",\"tenant\":\"t0\",\"instance\":\"w0\",\"tree\":\"gibberish\"}",
       "cru_tree"},
      {"{\"op\":\"submit\",\"tenant\":\"t0\",\"instance\":\"w0\",\"tree\":\"cru_tree v1\\n"
       "0 - compute R 1 0 0 -\\n1 0 compute A 1 1 1 -\\n2 1 sensor S 0 0 1 0\\n"
       "3 0 compute A 1 1 1 -\\n4 3 sensor S 0 0 1 1\\n\"}",
       "node name 'A' appears twice"},
      {"{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\",\"nested\":{}}",
       "nested values"},
      {"{\"op\":\"solve\",\"op\":\"solve\"}", "duplicate key"},
      {"{\"op\":\"perturb\",\"tenant\":\"t0\",\"instance\":\"w0\",\"kind\":\"melt\"}",
       "unknown instance"},  // instance checked before the kind
  };
  for (const auto& bad : kBad) {
    const std::string response = service.handle_line(bad.line);
    EXPECT_CONTAINS(response, "\"ok\":false");
    EXPECT_CONTAINS(response, bad.expect);
  }
  // The service survives all of it.
  static_cast<void>(service.handle_line(submit_line("t0", "w0", paper_running_example())));
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "\"ok\":true");
  // An invalid perturbation rolls back: the session still serves.
  EXPECT_CONTAINS(service.handle_line(
                      "{\"op\":\"perturb\",\"tenant\":\"t0\",\"instance\":\"w0\","
                      "\"kind\":\"satellite_loss\",\"satellite\":99}"),
                  "\"ok\":false");
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "\"path\":\"cached\"");
}

TEST(Service, OutOfRangeSatelliteIdsAreRejected) {
  // Satellite ids are 32-bit. 2^32 used to wrap onto satellite 0 and drift
  // it; 2^32-1 is the invalid-id sentinel; 1e20 is past what a size_t cast
  // may be given; -1 and 1.5 are not ids at all. Each must be one error
  // response that leaves the session untouched.
  SolverService service;
  const CruTree tree = paper_running_example();
  static_cast<void>(service.handle_line(submit_line("t0", "w0", tree)));
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "\"ok\":true");
  const std::string probe_fields =
      ",\"parent\":\"" + json_escape(tree.node(tree.root()).name) + "\",\"name\":\"probe\"";
  for (const char* kind : {"satellite_drift", "satellite_loss", "insert_probe"}) {
    for (const char* id : {"4294967296", "4294967295", "1e20", "-1", "1.5"}) {
      SCOPED_TRACE(std::string(kind) + " satellite " + id);
      std::string line = "{\"op\":\"perturb\",\"tenant\":\"t0\",\"instance\":\"w0\",\"kind\":\"";
      line += kind;
      line += "\",\"satellite\":";
      line += id;
      if (std::string(kind) == "insert_probe") line += probe_fields;
      line += '}';
      const std::string response = service.handle_line(line);
      EXPECT_CONTAINS(response, "\"ok\":false");
      EXPECT_CONTAINS(response, "field 'satellite'");
      EXPECT_CONTAINS(
          service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
          "\"path\":\"cached\"");
    }
  }
  // The largest valid id still reaches the perturbation, which rejects it
  // as a satellite the tree does not have.
  const std::string largest = service.handle_line(
      "{\"op\":\"perturb\",\"tenant\":\"t0\",\"instance\":\"w0\","
      "\"kind\":\"satellite_loss\",\"satellite\":4294967294}");
  EXPECT_CONTAINS(largest, "\"ok\":false");
  EXPECT_CONTAINS(largest, "names satellite 4294967294");
}

TEST(Service, SatelliteIdsAreBoundedByTheTree) {
  // Every solve sizes its per-colour state by the satellite count, so a
  // client may not inflate it: a submitted tree names no more satellites
  // than it has nodes, and a probe joins an existing satellite or the next
  // new one. Both repro lines below used to be admitted, and the solve
  // behind each sized its arrays for ~4e9 colours (std::bad_alloc under a
  // 4 GB address-space cap).
  SolverService service;
  CruTreeBuilder builder;
  const CruId root = builder.root("root", 1.0);
  builder.sensor(root, "s", SatelliteId{std::size_t{4000000000}}, 1.0);
  const std::string inflated = service.handle_line(submit_line("t0", "big", builder.build()));
  EXPECT_CONTAINS(inflated, "\"ok\":false");
  EXPECT_CONTAINS(inflated, "field 'tree'");
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"big\"}"),
      "unknown instance");

  const CruTree tree = paper_running_example();
  static_cast<void>(service.handle_line(submit_line("t0", "w0", tree)));
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "\"ok\":true");
  const auto probe = [&](const std::string& satellite) {
    return service.handle_line(
        "{\"op\":\"perturb\",\"tenant\":\"t0\",\"instance\":\"w0\",\"kind\":\"insert_probe\","
        "\"satellite\":" +
        satellite + ",\"parent\":\"" + json_escape(tree.node(tree.root()).name) +
        "\",\"name\":\"probe" + satellite + "\"}");
  };
  const std::size_t count = tree.satellite_count();
  for (const std::string& id : {std::string("3999999999"), std::to_string(count + 1)}) {
    SCOPED_TRACE("insert_probe satellite " + id);
    const std::string response = probe(id);
    EXPECT_CONTAINS(response, "\"ok\":false");
    EXPECT_CONTAINS(response, "field 'satellite'");
    EXPECT_CONTAINS(
        service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
        "\"path\":\"cached\"");
  }
  // The next new id and an existing one still join.
  EXPECT_CONTAINS(probe(std::to_string(count)), "\"ok\":true");
  EXPECT_CONTAINS(probe("0"), "\"ok\":true");
}

TEST(Service, AdmissionRejectsOversizedInstances) {
  ServiceOptions options = parse_service_config("mem_budget=1k,fail_fast=false");
  SolverService service(options);
  const std::string response =
      service.handle_line(submit_line("t0", "w0", paper_running_example()));
  EXPECT_CONTAINS(response, "\"ok\":false");
  EXPECT_CONTAINS(response, "admission");
}

TEST(Service, LruEvictionUnderByteBudget) {
  // Two submitted epilepsy trees (~2.6 KiB each) fit a 6 KiB budget; one
  // warm session (~4.3 KiB) plus a tree does not. Warming instance a must
  // therefore evict the LRU entry -- b, never a itself (the entry being
  // served is protected; a per-request victim is always some *other*
  // instance).
  SolverService service(parse_service_config("shards=4,mem_budget=6k,fail_fast=false"));
  const Scenario scenario = epilepsy_scenario();
  const CruTree tree = scenario.workload.lower(scenario.platform);
  static_cast<void>(service.handle_line(submit_line("t0", "a", tree)));
  static_cast<void>(service.handle_line(submit_line("t0", "b", tree)));
  const std::string first =
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"a\"}");
  EXPECT_CONTAINS(first, "\"ok\":true");
  EXPECT_CONTAINS(first, "\"lru_evicted\":1");

  // Instance b is gone; a is still warm.
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"b\"}"),
      "unknown instance");
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"a\"}"),
      "\"path\":\"cached\"");
  EXPECT_CONTAINS(service.handle_line("{\"op\":\"stats\"}"), "\"lru_evictions\":1");
}

TEST(Service, SpillTierPreservesWarmStateAcrossEviction) {
  // Same byte arithmetic as LruEvictionUnderByteBudget (two epilepsy trees
  // fit 6 KiB, a warm session plus anything does not), but with a spill
  // tier: LRU victims land on disk and come back warm -- the re-solve that
  // eviction used to cost disappears.
  const std::string spill = temp_subdir("spill_warm");
  SolverService service(parse_service_config(
      "shards=4,mem_budget=6k,fail_fast=false,spill_dir=" + spill));
  const Scenario scenario = epilepsy_scenario();
  const CruTree tree = scenario.workload.lower(scenario.platform);
  static_cast<void>(service.handle_line(submit_line("t0", "a", tree)));
  static_cast<void>(service.handle_line(submit_line("t0", "b", tree)));

  // Warming b evicts a's (tree-only) entry -- spilled, not destroyed.
  const std::string warm_b =
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"b\"}");
  EXPECT_CONTAINS(warm_b, "\"path\":\"initial\"");
  EXPECT_CONTAINS(warm_b, "\"lru_evicted\":1");
  std::string stats = service.handle_line("{\"op\":\"stats\"}");
  EXPECT_CONTAINS(stats, "\"spill_entries\":1");
  EXPECT_CONTAINS(stats, "\"spills\":1");
  EXPECT_CONTAINS(stats, "\"spill_reloads\":0");

  // a is NOT unknown (the no-spill test's outcome): it reloads from the
  // spill tier and solves; the warm b session is the next victim.
  const std::string solve_a =
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"a\"}");
  EXPECT_CONTAINS(solve_a, "\"ok\":true");
  EXPECT_CONTAINS(solve_a, "\"path\":\"initial\"");
  EXPECT_CONTAINS(solve_a, "\"lru_evicted\":1");

  // b comes back *warm*: "cached", not a re-solve -- the whole point of
  // spilling sessions instead of dropping them.
  const std::string back_b =
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"b\"}");
  EXPECT_CONTAINS(back_b, "\"ok\":true");
  EXPECT_CONTAINS(back_b, "\"path\":\"cached\"");

  stats = service.handle_line("{\"op\":\"stats\"}");
  EXPECT_CONTAINS(stats, "\"spill_reloads\":2");  // a (tree-only) + b (warm)
  EXPECT_CONTAINS(stats, "\"spill_budget\":0");
  // The spilled entry's bytes are on disk, not in the RAM gauge.
  EXPECT_CONTAINS(stats, "\"spill_entries\":1");
}

TEST(Service, EvictFateReporting) {
  const std::string spill = temp_subdir("spill_fate");
  SolverService service(parse_service_config("mem_budget=64m,spill_dir=" + spill));
  const CruTree tree = paper_running_example();
  static_cast<void>(service.handle_line(submit_line("t0", "w0", tree)));
  static_cast<void>(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"));

  // A warm session evicts to the spill tier...
  const std::string spilled =
      service.handle_line("{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\"}");
  EXPECT_CONTAINS(spilled, "\"evicted\":true");
  EXPECT_CONTAINS(spilled, "\"fate\":\"spilled\"");

  // ...and a later solve reloads it warm ("cached": no re-solve happened).
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "\"path\":\"cached\"");

  // "drop":true destroys it everywhere, spill tier included.
  const std::string dropped = service.handle_line(
      "{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\",\"drop\":true}");
  EXPECT_CONTAINS(dropped, "\"fate\":\"dropped\"");
  const std::string absent =
      service.handle_line("{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\"}");
  EXPECT_CONTAINS(absent, "\"evicted\":false");
  EXPECT_CONTAINS(absent, "\"fate\":\"absent\"");
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "unknown instance");

  // Evicting an already-spilled entry is a no-op that reports its tier;
  // dropping it then removes the file.
  static_cast<void>(service.handle_line(submit_line("t0", "w0", tree)));
  static_cast<void>(
      service.handle_line("{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\"}"));
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "\"fate\":\"spilled\"");
  EXPECT_CONTAINS(service.handle_line(
                      "{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\",\"drop\":true}"),
                  "\"fate\":\"dropped\"");

  // Without a spill tier an evict can only drop (the pre-tier behavior).
  SolverService bare;
  static_cast<void>(bare.handle_line(submit_line("t0", "w0", tree)));
  EXPECT_CONTAINS(
      bare.handle_line("{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "\"fate\":\"dropped\"");
}

TEST(Service, SpillBudgetDropsColdestSpilledEntries) {
  // A 1-byte spill budget: every spill is immediately swept back out, so
  // the tier holds nothing but the counters still tell the story.
  const std::string spill = temp_subdir("spill_tiny");
  SolverService service(parse_service_config(
      "mem_budget=64m,spill_dir=" + spill + ",spill_budget=1"));
  static_cast<void>(service.handle_line(submit_line("t0", "w0", paper_running_example())));
  const std::string evicted =
      service.handle_line("{\"op\":\"evict\",\"tenant\":\"t0\",\"instance\":\"w0\"}");
  // The entry was spilled, then the budget sweep dropped the file: the
  // observable fate is "dropped", and the instance really is gone.
  EXPECT_CONTAINS(evicted, "\"fate\":\"dropped\"");
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "unknown instance");
  const std::string stats = service.handle_line("{\"op\":\"stats\"}");
  EXPECT_CONTAINS(stats, "\"spill_budget\":1");
  EXPECT_CONTAINS(stats, "\"spill_entries\":0");
  EXPECT_CONTAINS(stats, "\"spill_bytes\":0");
}

TEST(Service, CheckpointRestoreOps) {
  const std::string dir = temp_subdir("ckpt_ops");
  SolverService service;
  static_cast<void>(service.handle_line(submit_line("t0", "w0", paper_running_example())));
  static_cast<void>(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"));

  const std::string saved =
      service.handle_line("{\"op\":\"checkpoint\",\"dir\":\"" + json_escape(dir) + "\"}");
  EXPECT_CONTAINS(saved, "\"ok\":true");
  EXPECT_CONTAINS(saved, "\"entries\":1");

  // A fresh service restores it and serves the warm session immediately.
  SolverService twin;
  const std::string restored =
      twin.handle_line("{\"op\":\"restore\",\"dir\":\"" + json_escape(dir) + "\"}");
  EXPECT_CONTAINS(restored, "\"ok\":true");
  EXPECT_CONTAINS(restored, "\"sessions\":1");
  EXPECT_CONTAINS(
      twin.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "\"path\":\"cached\"");

  // Restoring from a missing / empty directory is an error response, not a
  // torn-down service.
  const std::string bad = twin.handle_line(
      "{\"op\":\"restore\",\"dir\":\"" + json_escape(dir + "/nope") + "\"}");
  EXPECT_CONTAINS(bad, "\"ok\":false");
  EXPECT_CONTAINS(
      twin.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "\"ok\":true");
}

TEST(Service, RecheckpointRemovesTheSnapshotsItNoLongerLists) {
  // A directory checkpointed into again holds the last checkpoint's files
  // only: the snapshots of rows it no longer has and staging leftovers go,
  // and files it never writes stay.
  const std::string dir = temp_subdir("ckpt_rewrite");
  const std::string spill = temp_subdir("ckpt_rewrite_spill");
  SolverService service(parse_service_config("spill_dir=" + spill));
  const auto op = [&](const std::string& op, const std::string& instance,
                      const std::string& extra = "") {
    return service.handle_line("{\"op\":\"" + op + "\",\"tenant\":\"t\",\"instance\":\"" +
                               instance + "\"" + extra + "}");
  };
  for (const char* instance : {"a", "b", "c"}) {
    ASSERT_TRUE(contains(service.handle_line(submit_line("t", instance, paper_running_example())),
                         "\"ok\":true"));
  }
  ASSERT_TRUE(contains(op("evict", "c"), "\"fate\":\"spilled\""));
  const std::string checkpoint = "{\"op\":\"checkpoint\",\"dir\":\"" + json_escape(dir) + "\"}";
  ASSERT_TRUE(contains(service.handle_line(checkpoint), "\"ok\":true"));
  ASSERT_TRUE(std::filesystem::exists(dir + "/sessions/t@a.tss"));
  ASSERT_TRUE(std::filesystem::exists(dir + "/spilled/t@c.tss"));
  std::ofstream(dir + "/notes.txt") << "kept";
  std::ofstream(dir + "/sessions/notes.txt") << "kept";
  std::ofstream(dir + "/spilled/t@z.tss.tmp") << "staged by a crashed checkpoint";

  // a dropped, c reloaded, b spilled.
  ASSERT_TRUE(contains(op("evict", "a", ",\"drop\":true"), "\"fate\":\"dropped\""));
  ASSERT_TRUE(contains(op("solve", "c"), "\"ok\":true"));
  ASSERT_TRUE(contains(op("evict", "b"), "\"fate\":\"spilled\""));
  ASSERT_TRUE(contains(service.handle_line(checkpoint), "\"ok\":true"));

  std::vector<std::string> files;
  for (const auto& file : std::filesystem::recursive_directory_iterator(dir)) {
    if (file.is_regular_file()) {
      files.push_back(std::filesystem::relative(file.path(), dir).string());
    }
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"MANIFEST.tsc", "notes.txt", "sessions/notes.txt",
                                             "sessions/t@c.tss", "spilled/t@b.tss"}));
  SolverService restarted(parse_service_config("spill_dir=" + spill));
  restarted.restore_from(dir);
  EXPECT_CONTAINS(restarted.handle_line("{\"op\":\"stats\"}"), "\"restore_faults\":0");
}

TEST(Service, CheckpointRestoreHoldsTheTenantCap) {
  // Only a manifest the service did not write can carry more tenant rows
  // than the live cap. Restore folds the rows past the cap into the
  // overflow bucket in manifest order, on top of the manifest's own
  // overflow row, as the live service folds late tenants.
  constexpr std::size_t kCap = ServiceTelemetry::kMaxTrackedTenants;
  ServiceTelemetry wide;
  wide.requests = 6123;
  for (std::size_t k = 0; k < 3000; ++k) {
    // Inserted directly, not through slot(), so the cap does not apply.
    TenantTelemetry& t = wide.tenants["rot" + std::to_string(k)];
    t.requests = 2 + k % 5;
    t.solves = 1;
    t.warm_hits = k % 3;
    t.method_counts[k % kSolveMethodCount] = 1;
  }
  wide.overflow.requests = 41;
  wide.overflow.errors = 2;
  wide.overflow.method_counts[0] = 7;

  // The expected restore: the first kCap rows in manifest (name) order
  // tracked, the rest summed into the original overflow.
  ServiceTelemetry capped;
  capped.requests = wide.requests;
  capped.overflow = wide.overflow;
  for (const auto& [name, tenant] : wide.tenants) {
    if (capped.tenants.size() < kCap) {
      capped.tenants.emplace(name, tenant);
    } else {
      capped.overflow.merge(tenant);
    }
  }

  const SessionStore empty(1, 0);
  const std::string wide_dir = temp_subdir("ckpt_wide_tenants");
  const std::string capped_dir = temp_subdir("ckpt_capped_tenants");
  write_checkpoint(wide_dir, empty, wide, 0);
  write_checkpoint(capped_dir, empty, capped, 0);

  const RestoredService restored = read_checkpoint(wide_dir, 1, 0, "", 0);
  ASSERT_EQ(restored.telemetry.tenants.size(), kCap);
  auto want = capped.tenants.begin();
  for (const auto& [name, tenant] : restored.telemetry.tenants) {
    EXPECT_EQ(name, want->first);
    EXPECT_EQ(tenant.requests, want->second.requests) << name;
    ++want;
  }
  for (const TenantCounter& counter : kTenantCounters) {
    EXPECT_EQ(restored.telemetry.overflow.*counter.member, capped.overflow.*counter.member)
        << counter.name;
    EXPECT_EQ(restored.telemetry.totals().*counter.member, wide.totals().*counter.member)
        << counter.name;
  }
  EXPECT_EQ(restored.telemetry.overflow.method_counts, capped.overflow.method_counts);

  // The unscoped stats answer is no larger than the one for kCap tenants
  // plus an overflow section.
  SolverService from_wide;
  from_wide.restore_from(wide_dir);
  SolverService from_capped;
  from_capped.restore_from(capped_dir);
  const std::string stats = from_wide.handle_line("{\"op\":\"stats\"}");
  const std::string bound = from_capped.handle_line("{\"op\":\"stats\"}");
  EXPECT_CONTAINS(bound, "\"tenant\":\"(overflow)\"");
  EXPECT_LE(stats.size(), bound.size());
  EXPECT_EQ(stats, bound);
}

TEST(Service, DeadlineRejectsLateRequests) {
  // An absurdly small service deadline: every request arrives after it.
  SolverService late(parse_service_config("deadline_ms=1e-9,fail_fast=false"));
  const std::string response =
      late.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}");
  EXPECT_CONTAINS(response, "\"ok\":false");
  EXPECT_CONTAINS(response, "deadline");

  // Per-request deadline_ms tightens the (unlimited) service budget.
  SolverService service;
  const std::string request_late = service.handle_line(
      "{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\",\"deadline_ms\":1e-9}");
  EXPECT_CONTAINS(request_late, "deadline");
  // Without the field the same request is admitted (and fails usefully).
  EXPECT_CONTAINS(
      service.handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"),
      "unknown instance");
}

TEST(Service, ServeHonorsFailFastAndComments) {
  const CruTree tree = paper_running_example();
  std::string trace;
  trace += "# a comment line\n\n";
  trace += submit_line("t0", "w0", tree);
  trace += "\n{\"op\":\"warp\"}\n";  // error in the middle
  trace += "{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}\n";

  {
    SolverService service;  // fail_fast defaults on, like the executor
    std::istringstream in(trace);
    std::ostringstream out;
    EXPECT_EQ(service.serve(in, out), 1u);
    // submit + the error: the solve after the failure was never started.
    const std::string responses = out.str();
    EXPECT_EQ(std::count(responses.begin(), responses.end(), '\n'), 2);
  }
  {
    SolverService service(parse_service_config("fail_fast=false"));
    std::istringstream in(trace);
    std::ostringstream out;
    EXPECT_EQ(service.serve(in, out), 1u);
    const std::string responses = out.str();
    EXPECT_EQ(std::count(responses.begin(), responses.end(), '\n'), 3);
    EXPECT_CONTAINS(responses, "\"path\":\"initial\"");
  }
}

TEST(Service, StatsDocumentAndTimingOptIn) {
  SolverService service;
  SolverService twin;
  for (SolverService* s : {&service, &twin}) {
    static_cast<void>(s->handle_line(submit_line("t0", "w0", paper_running_example())));
    static_cast<void>(
        s->handle_line("{\"op\":\"solve\",\"tenant\":\"t0\",\"instance\":\"w0\"}"));
  }

  const std::string stats = service.handle_line("{\"op\":\"stats\"}");
  EXPECT_CONTAINS(stats, "\"initial_solves\":1");
  EXPECT_CONTAINS(stats, "\"method_counts\":{\"pareto-dp\":1}");
  EXPECT_CONTAINS(stats, "\"tenants\":[{\"tenant\":\"t0\"");
  // Stats carry counters only: a "timing" field changes no byte.
  EXPECT_FALSE(contains(stats, "latency_ms")) << stats;
  EXPECT_EQ(twin.handle_line("{\"op\":\"stats\",\"timing\":true}"), stats);

  // Tenant-scoped stats only carry that tenant's section.
  static_cast<void>(service.handle_line(submit_line("t1", "w0", paper_running_example())));
  const std::string scoped = service.handle_line("{\"op\":\"stats\",\"tenant\":\"t1\"}");
  EXPECT_CONTAINS(scoped, "\"tenant\":\"t1\"");
  EXPECT_FALSE(contains(scoped, "\"tenant\":\"t0\"")) << scoped;
}

TEST(Service, ConfigSpecRoundTrips) {
  const ServiceOptions options = parse_service_config(
      "shards=4,mem_budget=64m,deadline_ms=250,fail_fast=false,plan=coloured-ssb");
  EXPECT_EQ(options.shards, 4u);
  EXPECT_EQ(options.mem_budget, std::size_t{64} << 20);
  EXPECT_DOUBLE_EQ(options.deadline_seconds, 0.25);
  EXPECT_FALSE(options.fail_fast);
  EXPECT_EQ(options.plan, "coloured-ssb");

  const ServiceOptions back = parse_service_config(service_config_spec(options));
  EXPECT_EQ(back.shards, options.shards);
  EXPECT_EQ(back.mem_budget, options.mem_budget);
  EXPECT_DOUBLE_EQ(back.deadline_seconds, options.deadline_seconds);
  EXPECT_EQ(back.fail_fast, options.fail_fast);
  EXPECT_EQ(back.plan, options.plan);

  // Suffix forms.
  EXPECT_EQ(parse_service_config("mem_budget=512k").mem_budget, std::size_t{512} << 10);
  EXPECT_EQ(parse_service_config("mem_budget=1G").mem_budget, std::size_t{1} << 30);
  EXPECT_EQ(parse_service_config("mem_budget=0").mem_budget, 0u);

  // Spill keys ride the same round trip.
  const ServiceOptions tiered =
      parse_service_config("mem_budget=6k,spill_dir=/tmp/spill,spill_budget=2m");
  EXPECT_EQ(tiered.spill_dir, "/tmp/spill");
  EXPECT_EQ(tiered.spill_budget, std::size_t{2} << 20);
  const ServiceOptions tiered_back = parse_service_config(service_config_spec(tiered));
  EXPECT_EQ(tiered_back.spill_dir, tiered.spill_dir);
  EXPECT_EQ(tiered_back.spill_budget, tiered.spill_budget);
  // Untiered configs keep round-tripping without the keys appearing.
  EXPECT_EQ(service_config_spec(parse_service_config("shards=2")).find("spill"),
            std::string::npos);

  // The overload keys ride the same round trip: degrade= (closed enum) and
  // fault= (the ';'/':' sub-spec of storage/faults.hpp, comma-free so it
  // nests). Both stay out of the spec at their defaults.
  const ServiceOptions overload = parse_service_config(
      "degrade=greedy,fault=seed:7;spill_read:0.5;truncate:0.25");
  EXPECT_EQ(overload.degrade, DegradeMode::kGreedy);
  EXPECT_EQ(overload.faults.seed, 7u);
  EXPECT_TRUE(overload.faults.enabled());
  const std::string spec = service_config_spec(overload);
  EXPECT_CONTAINS(spec, "degrade=greedy");
  EXPECT_CONTAINS(spec, "fault=seed:7;spill_read:0.5;truncate:0.25");
  const ServiceOptions overload_back = parse_service_config(spec);
  EXPECT_EQ(overload_back.degrade, overload.degrade);
  EXPECT_EQ(fault_plan_spec(overload_back.faults), fault_plan_spec(overload.faults));
  EXPECT_EQ(service_config_spec(ServiceOptions{}).find("degrade"), std::string::npos);
  EXPECT_EQ(service_config_spec(ServiceOptions{}).find("fault"), std::string::npos);
}

}  // namespace
}  // namespace treesat
