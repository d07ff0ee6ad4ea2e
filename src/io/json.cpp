#include "io/json.hpp"

#include <type_traits>
#include <variant>

namespace treesat {

namespace {

/// The members of an assignment object.
void write_assignment(JsonLineWriter& w, const Assignment& assignment) {
  const CruTree& tree = assignment.tree();
  const DelayBreakdown d = assignment.delay();
  w.begin_array("placements");
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const SatelliteId sat = assignment.satellite_of(CruId{i});
    w.begin_object().field_str("name", tree.node(CruId{i}).name);
    if (sat.valid()) {
      w.field_str("on", "satellite").field_uint("satellite", sat.value());
    } else {
      w.field_str("on", "host");
    }
    w.end_object();
  }
  w.end_array().begin_array("cut");
  for (const CruId v : assignment.cut_nodes()) w.item_str(tree.node(v).name);
  w.end_array().begin_object("delay");
  w.field_num("host_time", d.host_time)
      .field_num("bottleneck", d.bottleneck)
      .field_num("end_to_end", d.end_to_end())
      .begin_array("satellite_time");
  for (const double t : d.satellite_time) w.item_num(t);
  w.end_array().end_object();
}

/// The method-specific "stats" member: null for a method without any.
void write_method_stats(JsonLineWriter& w, const MethodStats& stats) {
  if (std::holds_alternative<std::monostate>(stats)) {
    w.field_null("stats");
    return;
  }
  w.begin_object("stats");
  std::visit(
      [&](const auto& s) {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, ColouredSsbStats>) {
          w.field_uint("iterations", s.iterations)
              .field_uint("edges_eliminated", s.edges_eliminated)
              .field_uint("regions_expanded", s.regions_expanded)
              .field_uint("composite_edges", s.composite_edges)
              .field_uint("expanded_edge_count", s.expanded_edge_count)
              .field_bool("used_fallback", s.used_fallback)
              .field_bool("stalled", s.stalled)
              .field_bool("warm_started", s.warm_started);
        } else if constexpr (std::is_same_v<T, ParetoDpStats>) {
          w.field_uint("max_region_frontier", s.max_region_frontier)
              .field_uint("max_colour_frontier", s.max_colour_frontier)
              .field_uint("candidates_swept", s.candidates_swept)
              .field_uint("arena_bytes", s.arena_bytes)
              .field_uint("peak_frontier", s.peak_frontier)
              .field_uint("minkowski_merges", s.minkowski_merges)
              .field_uint("merge_points_generated", s.merge_points_generated)
              .field_uint("merge_points_kept", s.merge_points_kept)
              .field_num("prune_ratio", s.prune_ratio());
        } else if constexpr (std::is_same_v<T, ExhaustiveStats>) {
          w.field_uint("assignments_enumerated", s.assignments_enumerated);
        } else if constexpr (std::is_same_v<T, BranchBoundStats>) {
          w.field_uint("nodes_visited", s.nodes_visited).field_uint("nodes_pruned", s.nodes_pruned);
        } else if constexpr (std::is_same_v<T, GeneticStats>) {
          w.field_uint("generations_run", s.generations_run).field_uint("evaluations", s.evaluations);
        } else if constexpr (std::is_same_v<T, LocalSearchStats>) {
          w.field_uint("moves_applied", s.moves_applied).field_uint("restarts_run", s.restarts_run);
        } else if constexpr (std::is_same_v<T, AnnealingStats>) {
          w.field_uint("steps_run", s.steps_run).field_uint("moves_accepted", s.moves_accepted);
        }
      },
      stats);
  w.end_object();
}

void write_resolve_stats(JsonLineWriter& w, const ResolveStats& stats) {
  w.field_str("path", resolve_path_name(stats.path))
      .field_uint("step", stats.step)
      .field_str("cold_reason", stats.cold_reason)
      .field_uint("regions_total", stats.regions_total)
      .field_uint("regions_reused", stats.regions_reused)
      .field_uint("regions_recomputed", stats.regions_recomputed)
      .field_uint("colours_total", stats.colours_total)
      .field_uint("colours_reused", stats.colours_reused)
      .field_uint("cache_entries", stats.cache_entries)
      .field_bool("incumbent_used", stats.incumbent_used);
}

/// Both report_to_json overloads; `resolve` adds the session provenance.
std::string report_json(const SolveReport& report, const ResolveStats* resolve) {
  JsonLineWriter w;
  w.field_str("method", method_name(report.method))
      .field_str("requested", method_name(report.requested))
      .field_bool("exact", report.exact)
      .field_num("objective", report.objective_value)
      .field_num("wall_seconds", report.wall_seconds);
  if (resolve != nullptr) {
    w.begin_object("resolve");
    write_resolve_stats(w, *resolve);
    w.end_object();
  }
  write_method_stats(w, report.stats);
  w.begin_object("assignment");
  write_assignment(w, report.assignment);
  w.end_object();
  return w.finish();
}

}  // namespace

std::string tree_to_json(const CruTree& tree) {
  JsonLineWriter w;
  w.begin_array("nodes");
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const CruNode& nd = tree.node(CruId{i});
    w.begin_object()
        .field_uint("id", i)
        .field_str("name", nd.name)
        .field_str("kind", nd.is_sensor() ? "sensor" : "compute");
    if (nd.parent.valid()) {
      w.field_uint("parent", nd.parent.value());
    } else {
      w.field_null("parent");
    }
    w.field_num("host_time", nd.host_time)
        .field_num("sat_time", nd.sat_time)
        .field_num("comm_up", nd.comm_up);
    if (nd.satellite.valid()) w.field_uint("satellite", nd.satellite.value());
    w.end_object();
  }
  w.end_array()
      .field_uint("sensor_count", tree.sensor_count())
      .field_uint("satellite_count", tree.satellite_count());
  return w.finish();
}

std::string assignment_to_json(const Assignment& assignment) {
  JsonLineWriter w;
  write_assignment(w, assignment);
  return w.finish();
}

std::string report_to_json(const SolveReport& report) { return report_json(report, nullptr); }

std::string resolve_stats_to_json(const ResolveStats& stats) {
  JsonLineWriter w;
  write_resolve_stats(w, stats);
  return w.finish();
}

std::string report_to_json(const SolveReport& report, const ResolveStats& resolve) {
  return report_json(report, &resolve);
}

std::string sim_to_json(const SimResult& result) {
  JsonLineWriter w;
  w.begin_array("frames");
  for (const auto& frame : result.frames) {
    w.begin_object()
        .field_num("release", frame.release)
        .field_num("completion", frame.completion)
        .field_num("latency", frame.latency())
        .end_object();
  }
  w.end_array()
      .field_num("makespan", result.makespan)
      .field_num("mean_latency", result.mean_latency)
      .field_num("max_latency", result.max_latency)
      .field_num("throughput", result.throughput())
      .field_num("host_busy", result.host_busy)
      .begin_array("sat_busy");
  for (const double busy : result.sat_busy) w.item_num(busy);
  w.end_array().begin_array("uplink_busy");
  for (const double busy : result.uplink_busy) w.item_num(busy);
  w.end_array();
  return w.finish();
}

}  // namespace treesat
