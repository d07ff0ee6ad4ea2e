// Byte pins for the JSON documents no golden file covers: report_to_json
// for every MethodStats alternative, tree_to_json of the paper's running
// example, stats documents with an escaped tenant name and an overflow
// section, a chrome trace recorded with timing off, and the escaper over
// every byte value. The expected strings are the bytes the library wrote
// when they were recorded; a change to any of them is a format change for
// every client, dashboard and trace viewer that reads these documents.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "core/solver.hpp"
#include "io/json.hpp"
#include "obs/trace.hpp"
#include "service/protocol.hpp"
#include "service/telemetry.hpp"
#include "workload/scenarios.hpp"

namespace treesat {
namespace {

TEST(JsonBytes, ReportForEveryMethodStatsAlternative) {
  const CruTree tree = paper_running_example();
  const Colouring colouring(tree);
  SolveReport report = solve(colouring, SolvePlan::pareto_dp());
  report.wall_seconds = 0.0;
  const std::string head =
    R"json({"method":"pareto-dp","requested":"pareto-dp","exact":true,"objective":53,)json"
    R"json("wall_seconds":0,"stats":)json";
  const std::string tail =
    R"json(,"assignment":{"placements":[{"name":"CRU1","on":"host"},{"name":"CRU2",)json"
    R"json("on":"host"},{"name":"CRU3","on":"host"},{"name":"CRU4","on":"satellite",)json"
    R"json("satellite":0},{"name":"CRU5","on":"host"},{"name":"CRU6","on":"host"},)json"
    R"json({"name":"CRU7","on":"satellite","satellite":1},{"name":"CRU8","on":"satellite",)json"
    R"json("satellite":3},{"name":"CRU9","on":"satellite","satellite":0},{"name":"CRU10",)json"
    R"json("on":"satellite","satellite":0},{"name":"sensorR1","on":"satellite","satellite":0},)json"
    R"json({"name":"sensorR2","on":"satellite","satellite":0},{"name":"sensorB1",)json"
    R"json("on":"satellite","satellite":2},{"name":"CRU11","on":"satellite","satellite":2},)json"
    R"json({"name":"sensorB2","on":"satellite","satellite":2},{"name":"CRU13",)json"
    R"json("on":"satellite","satellite":2},{"name":"sensorB3","on":"satellite","satellite":2},)json"
    R"json({"name":"sensorY","on":"satellite","satellite":1},{"name":"CRU12","on":"satellite",)json"
    R"json("satellite":3},{"name":"sensorG","on":"satellite","satellite":3}],"cut":["CRU4",)json"
    R"json("sensorB1","CRU11","CRU13","CRU7","CRU8"],"delay":{"host_time":17,"bottleneck":36,)json"
    R"json("end_to_end":53,"satellite_time":[36,12,36,29]}}})json";
  const std::pair<MethodStats, std::string> cases[] = {
      {std::monostate{},
       R"json(null)json"},
      {ColouredSsbStats{1, 2, 3, 4, 5, true, false, true},
       R"json({"iterations":1,"edges_eliminated":2,"regions_expanded":3,"composite_edges":4,)json"
       R"json("expanded_edge_count":5,"used_fallback":true,"stalled":false,)json"
       R"json("warm_started":true})json"},
      {ParetoDpStats{6, 7, 8, 9, 10, 11, 12, 4},
       R"json({"max_region_frontier":6,"max_colour_frontier":7,"candidates_swept":8,)json"
       R"json("arena_bytes":9,"peak_frontier":10,"minkowski_merges":11,)json"
       R"json("merge_points_generated":12,"merge_points_kept":4,)json"
       R"json("prune_ratio":0.6666666666666667})json"},
      {ExhaustiveStats{13},
       R"json({"assignments_enumerated":13})json"},
      {BranchBoundStats{14, 15},
       R"json({"nodes_visited":14,"nodes_pruned":15})json"},
      {GeneticStats{16, 17},
       R"json({"generations_run":16,"evaluations":17})json"},
      {LocalSearchStats{18, 19},
       R"json({"moves_applied":18,"restarts_run":19})json"},
      {AnnealingStats{20, 21},
       R"json({"steps_run":20,"moves_accepted":21})json"},
  };
  for (const auto& [stats, json] : cases) {
    report.stats = stats;
    EXPECT_EQ(report_to_json(report), head + json + tail) << json;
  }
}

TEST(JsonBytes, PaperRunningExampleTree) {
  EXPECT_EQ(tree_to_json(paper_running_example()),
    R"json({"nodes":[{"id":0,"name":"CRU1","kind":"compute","parent":null,"host_time":1,)json"
    R"json("sat_time":0,"comm_up":0},{"id":1,"name":"CRU2","kind":"compute","parent":0,)json"
    R"json("host_time":2,"sat_time":6,"comm_up":1},{"id":2,"name":"CRU3","kind":"compute",)json"
    R"json("parent":0,"host_time":3,"sat_time":7,"comm_up":1},{"id":3,"name":"CRU4",)json"
    R"json("kind":"compute","parent":1,"host_time":4,"sat_time":8,"comm_up":1},{"id":4,)json"
    R"json("name":"CRU5","kind":"compute","parent":1,"host_time":5,"sat_time":9,"comm_up":1},)json"
    R"json({"id":5,"name":"CRU6","kind":"compute","parent":2,"host_time":6,"sat_time":10,)json"
    R"json("comm_up":1},{"id":6,"name":"CRU7","kind":"compute","parent":2,"host_time":7,)json"
    R"json("sat_time":11,"comm_up":1},{"id":7,"name":"CRU8","kind":"compute","parent":2,)json"
    R"json("host_time":8,"sat_time":12,"comm_up":1},{"id":8,"name":"CRU9","kind":"compute",)json"
    R"json("parent":3,"host_time":9,"sat_time":13,"comm_up":1},{"id":9,"name":"CRU10",)json"
    R"json("kind":"compute","parent":3,"host_time":10,"sat_time":14,"comm_up":1},{"id":10,)json"
    R"json("name":"sensorR1","kind":"sensor","parent":8,"host_time":0,"sat_time":0,)json"
    R"json("comm_up":2,"satellite":0},{"id":11,"name":"sensorR2","kind":"sensor","parent":9,)json"
    R"json("host_time":0,"sat_time":0,"comm_up":2,"satellite":0},{"id":12,"name":"sensorB1",)json"
    R"json("kind":"sensor","parent":4,"host_time":0,"sat_time":0,"comm_up":2,"satellite":2},)json"
    R"json({"id":13,"name":"CRU11","kind":"compute","parent":4,"host_time":11,"sat_time":15,)json"
    R"json("comm_up":1},{"id":14,"name":"sensorB2","kind":"sensor","parent":13,"host_time":0,)json"
    R"json("sat_time":0,"comm_up":2,"satellite":2},{"id":15,"name":"CRU13","kind":"compute",)json"
    R"json("parent":5,"host_time":13,"sat_time":17,"comm_up":1},{"id":16,"name":"sensorB3",)json"
    R"json("kind":"sensor","parent":15,"host_time":0,"sat_time":0,"comm_up":2,"satellite":2},)json"
    R"json({"id":17,"name":"sensorY","kind":"sensor","parent":6,"host_time":0,"sat_time":0,)json"
    R"json("comm_up":2,"satellite":1},{"id":18,"name":"CRU12","kind":"compute","parent":7,)json"
    R"json("host_time":12,"sat_time":16,"comm_up":1},{"id":19,"name":"sensorG",)json"
    R"json("kind":"sensor","parent":18,"host_time":0,"sat_time":0,"comm_up":2,"satellite":3}],)json"
    R"json("sensor_count":7,"satellite_count":4})json");
}

TEST(JsonBytes, StatsDocumentEscapesTenantNamesAndReportsOverflow) {
  ServiceTelemetry telemetry;
  telemetry.mem_budget = 65536;
  telemetry.bytes_used = 4096;
  telemetry.entries = 2;
  telemetry.sessions = 1;
  telemetry.spill_entries = 1;
  telemetry.spills = 3;
  telemetry.spill_reloads = 2;
  telemetry.requests = 20;
  telemetry.errors = 1;
  TenantTelemetry& plain = telemetry.slot("t0");
  plain.requests = 6;
  plain.submits = 1;
  plain.solves = 2;
  plain.perturbs = 3;
  plain.initial_solves = 1;
  plain.warm_hits = 3;
  plain.cold_solves = 1;
  plain.method_counts[static_cast<std::size_t>(SolveMethod::kParetoDp)] = 4;
  // Every byte the escaper names, one it writes as \u00xx, and a '/',
  // which it leaves alone.
  const std::string odd_name = "q\"\\\n\t\x01/";
  TenantTelemetry& odd = telemetry.slot(odd_name);
  odd.requests = 4;
  odd.errors = 1;
  odd.perturbs = 2;
  odd.degraded = 1;
  odd.rejected = 1;
  odd.method_counts[static_cast<std::size_t>(SolveMethod::kGreedy)] = 1;
  telemetry.overflow.requests = 9;
  telemetry.overflow.solves = 3;
  telemetry.overflow.rejected = 1;

  EXPECT_EQ(service_telemetry_to_json(telemetry),
    R"json({"mem_budget":65536,"bytes_used":4096,"entries":2,"sessions":1,"spill_budget":0,)json"
    R"json("spill_bytes":0,"spill_entries":1,"spills":3,"spill_reloads":2,"spill_drops":0,)json"
    R"json("spill_faults":0,"restore_faults":0,"requests":20,"errors":1,)json"
    R"json("totals":{"requests":19,"errors":1,"submits":1,"solves":5,"perturbs":5,)json"
    R"json("evict_requests":0,"initial_solves":1,"warm_hits":3,"cold_solves":1,)json"
    R"json("warm_hit_ratio":0.75,"lru_evictions":0,"explicit_evictions":0,"spills":0,)json"
    R"json("spill_reloads":0,"degraded":1,"rejected":2,"goodput_ratio":0.8333333333333334,)json"
    R"json("method_counts":{"pareto-dp":4,"greedy":1}},)json"
    R"json("tenants":[{"tenant":"q\"\\\n\t\u0001/","requests":4,"errors":1,"submits":0,)json"
    R"json("solves":0,"perturbs":2,"evict_requests":0,"initial_solves":0,"warm_hits":0,)json"
    R"json("cold_solves":0,"warm_hit_ratio":0,"lru_evictions":0,"explicit_evictions":0,)json"
    R"json("spills":0,"spill_reloads":0,"degraded":1,"rejected":1,)json"
    R"json("goodput_ratio":0.6666666666666666,"method_counts":{"greedy":1}},{"tenant":"t0",)json"
    R"json("requests":6,"errors":0,"submits":1,"solves":2,"perturbs":3,"evict_requests":0,)json"
    R"json("initial_solves":1,"warm_hits":3,"cold_solves":1,"warm_hit_ratio":0.75,)json"
    R"json("lru_evictions":0,"explicit_evictions":0,"spills":0,"spill_reloads":0,"degraded":0,)json"
    R"json("rejected":0,"goodput_ratio":1,"method_counts":{"pareto-dp":4}},)json"
    R"json({"tenant":"(overflow)","requests":9,"errors":0,"submits":0,"solves":3,"perturbs":0,)json"
    R"json("evict_requests":0,"initial_solves":0,"warm_hits":0,"cold_solves":0,)json"
    R"json("warm_hit_ratio":0,"lru_evictions":0,"explicit_evictions":0,"spills":0,)json"
    R"json("spill_reloads":0,"degraded":0,"rejected":1,"goodput_ratio":0.75,)json"
    R"json("method_counts":{}}]})json");
  EXPECT_EQ(service_telemetry_to_json(telemetry, odd_name),
    R"json({"mem_budget":65536,"bytes_used":4096,"entries":2,"sessions":1,"spill_budget":0,)json"
    R"json("spill_bytes":0,"spill_entries":1,"spills":3,"spill_reloads":2,"spill_drops":0,)json"
    R"json("spill_faults":0,"restore_faults":0,"requests":20,"errors":1,)json"
    R"json("totals":{"requests":4,"errors":1,"submits":0,"solves":0,"perturbs":2,)json"
    R"json("evict_requests":0,"initial_solves":0,"warm_hits":0,"cold_solves":0,)json"
    R"json("warm_hit_ratio":0,"lru_evictions":0,"explicit_evictions":0,"spills":0,)json"
    R"json("spill_reloads":0,"degraded":1,"rejected":1,"goodput_ratio":0.6666666666666666,)json"
    R"json("method_counts":{"greedy":1}},"tenants":[{"tenant":"q\"\\\n\t\u0001/","requests":4,)json"
    R"json("errors":1,"submits":0,"solves":0,"perturbs":2,"evict_requests":0,)json"
    R"json("initial_solves":0,"warm_hits":0,"cold_solves":0,"warm_hit_ratio":0,)json"
    R"json("lru_evictions":0,"explicit_evictions":0,"spills":0,"spill_reloads":0,"degraded":1,)json"
    R"json("rejected":1,"goodput_ratio":0.6666666666666666,"method_counts":{"greedy":1}}]})json");
  EXPECT_EQ(service_telemetry_to_json(telemetry, "nobody"),
    R"json({"mem_budget":65536,"bytes_used":4096,"entries":2,"sessions":1,"spill_budget":0,)json"
    R"json("spill_bytes":0,"spill_entries":1,"spills":3,"spill_reloads":2,"spill_drops":0,)json"
    R"json("spill_faults":0,"restore_faults":0,"requests":20,"errors":1,)json"
    R"json("totals":{"requests":0,"errors":0,"submits":0,"solves":0,"perturbs":0,)json"
    R"json("evict_requests":0,"initial_solves":0,"warm_hits":0,"cold_solves":0,)json"
    R"json("warm_hit_ratio":0,"lru_evictions":0,"explicit_evictions":0,"spills":0,)json"
    R"json("spill_reloads":0,"degraded":0,"rejected":0,"goodput_ratio":1,"method_counts":{}},)json"
    R"json("tenants":[]})json");
}

TEST(JsonBytes, ChromeTraceWithTimingOff) {
  obs::TraceRecorder rec;
  rec.set_enabled(true);
  {
    obs::Span root(&rec, "req.solve");
    root.attr("id", std::uint64_t{7});
    root.attr("tenant", "t\"0\n");
    {
      obs::Span child(&rec, "store.lookup");
      child.attr("ratio", 0.1);
    }
    obs::Span sibling(&rec, "dp.sweep");
  }
  EXPECT_EQ(rec.chrome_trace_json(),
    R"json({"traceEvents":[{"name":"req.solve","ph":"X","ts":0,"dur":0,"pid":0,"tid":0,)json"
    R"json("args":{"id":7,"tenant":"t\"0\n","span_id":1,"parent_id":0}},)json"
    R"json({"name":"store.lookup","ph":"X","ts":0,"dur":0,"pid":0,"tid":0,"args":{"ratio":0.1,)json"
    R"json("span_id":2,"parent_id":1}},{"name":"dp.sweep","ph":"X","ts":0,"dur":0,"pid":0,)json"
    R"json("tid":0,"args":{"span_id":3,"parent_id":1}}]})json" "\n");
}

TEST(JsonBytes, EveryByteValueEscapesAndRoundTrips) {
  std::string all;
  for (int b = 0; b < 256; ++b) all += static_cast<char>(b);

  // Below 0x80: control bytes escaped, '"' and '\\' escaped, the rest as is.
  EXPECT_EQ(json_escape(all.substr(0, 0x7f)),
    R"json(\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b\u000c\r)json"
    R"json(\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019)json"
    R"json(\u001a\u001b\u001c\u001d\u001e\u001f !\"#$%&'()*+,-./0123456789:;<=>?@)json"
    R"json(ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~)json");
  // DEL and every byte past ASCII pass through unchanged.
  EXPECT_EQ(json_escape(all.substr(0x7f)), all.substr(0x7f));

  // The response writer's escape is the request parser's unescape.
  JsonLineWriter w;
  w.field_str("v", all);
  EXPECT_EQ(RequestObject::parse(w.finish()).string_at("v"), all);
}

}  // namespace
}  // namespace treesat
