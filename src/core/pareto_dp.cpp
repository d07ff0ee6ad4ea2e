#include "core/pareto_dp.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/pareto_kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace treesat {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// The bottleneck sweep over per-colour merged frontiers.

struct FrontierView {
  const double* load = nullptr;
  const double* host = nullptr;
  std::size_t count = 0;
};

struct SweepPick {
  std::vector<std::size_t> pick;
  std::size_t candidates_swept = 0;
  std::size_t max_colour_frontier = 0;
};

SweepPick sweep_colour_frontiers(const std::vector<FrontierView>& per_colour,
                                 double base_host, const SsbObjective& objective) {
  const std::size_t colours = per_colour.size();
  SweepPick out;
  for (const FrontierView& f : per_colour) {
    TS_CHECK(f.count > 0, "pareto_dp: empty colour frontier in sweep");
    out.max_colour_frontier = std::max(out.max_colour_frontier, f.count);
  }

  // Sweep candidate bottleneck values L: every distinct per-colour load,
  // ascending, taken by a k-way merge of the load-sorted frontiers (one
  // candidate, L = +inf, when there are no colours at all). pick[c] is
  // colour c's merge cursor: at L it has passed every point with load <= L,
  // so point pick[c] - 1 is the cheapest host that fits, and pick[c] == 0
  // means colour c cannot fit under L yet.
  std::vector<std::size_t> pick(colours, 0);
  std::size_t fitting = 0;  // colours with pick[c] > 0
  double best_value = kInf;
  std::vector<std::size_t> best_pick;
  bool more = true;
  while (more) {
    double L = kInf;
    for (std::size_t c = 0; c < colours; ++c) {
      if (pick[c] < per_colour[c].count) L = std::min(L, per_colour[c].load[pick[c]]);
    }
    more = false;
    for (std::size_t c = 0; c < colours; ++c) {
      const FrontierView& f = per_colour[c];
      if (pick[c] == 0 && f.load[0] <= L) ++fitting;
      while (pick[c] < f.count && f.load[pick[c]] <= L) ++pick[c];
      more = more || pick[c] < f.count;
    }
    ++out.candidates_swept;
    if (fitting < colours) continue;
    // Summed fresh per candidate, in colour order, so the value's bits do
    // not depend on the order the cursors moved in.
    double host_sum = 0.0;
    double achieved = 0.0;
    for (std::size_t c = 0; c < colours; ++c) {
      host_sum += per_colour[c].host[pick[c] - 1];
      achieved = std::max(achieved, per_colour[c].load[pick[c] - 1]);
    }
    const double value = objective.value(base_host + host_sum, achieved);
    if (value < best_value) {
      best_value = value;
      best_pick.resize(colours);
      for (std::size_t c = 0; c < colours; ++c) best_pick[c] = pick[c] - 1;
    }
  }
  TS_CHECK(best_value < kInf, "pareto_dp: sweep found no feasible bottleneck (impossible)");
  out.pick = std::move(best_pick);
  return out;
}

}  // namespace

namespace pareto_internal {

ParetoDpResult finish_solve(const Colouring& colouring, const ParetoDpOptions& options,
                            ColourPipeline& pipe, const std::vector<Span>& per_colour) {
  ParetoDpStats stats;
  pipe.add_stats(stats);
  const std::size_t colours = per_colour.size();
  std::vector<FrontierView> views(colours);
  for (std::size_t c = 0; c < colours; ++c) {
    const Span span = per_colour[c];
    views[c] = FrontierView{pipe.arena.load.data() + span.begin,
                            pipe.arena.host.data() + span.begin, span.size()};
  }
  SweepPick sw;
  {
    obs::Span sweep_span(obs::trace(), "dp.sweep");
    sw = sweep_colour_frontiers(views, colouring.forced_host_time(), options.objective);
    sweep_span.attr("candidates", static_cast<std::uint64_t>(sw.candidates_swept));
    sweep_span.attr("max_colour_frontier",
                    static_cast<std::uint64_t>(sw.max_colour_frontier));
  }
  stats.max_colour_frontier = sw.max_colour_frontier;
  stats.candidates_swept = sw.candidates_swept;
  static const obs::CounterSite merges("treesat_dp_minkowski_merges_total",
                                       "Minkowski merges across all solves");
  static const obs::CounterSite generated("treesat_dp_merge_points_generated_total",
                                          "Frontier points generated before dominance pruning");
  static const obs::CounterSite kept("treesat_dp_merge_points_kept_total",
                                     "Frontier points surviving dominance pruning");
  merges.add(stats.minkowski_merges);
  generated.add(stats.merge_points_generated);
  kept.add(stats.merge_points_kept);

  std::vector<CruId> cut;
  {
    obs::Span rec_span(obs::trace(), "dp.reconstruct");
    for (std::size_t c = 0; c < colours; ++c) {
      pipe.reconstruct(per_colour[c].begin + static_cast<std::uint32_t>(sw.pick[c]), cut);
    }
    rec_span.attr("cut", static_cast<std::uint64_t>(cut.size()));
  }
  Assignment assignment(colouring, std::move(cut));
  DelayBreakdown delay = assignment.delay();
  const double objective = delay.objective(options.objective);
  return ParetoDpResult{std::move(assignment), std::move(delay), objective, stats};
}

}  // namespace pareto_internal

std::vector<ParetoPoint> region_frontier(const Colouring& colouring, CruId region_root,
                                         std::size_t max_frontier) {
  TS_REQUIRE(colouring.is_assignable(region_root),
             "region_frontier: node is not assignable");
  pareto_internal::ColourPipeline pipe;
  const pareto_internal::Span span = pipe.region(colouring, region_root, max_frontier);
  std::vector<ParetoPoint> out(span.size());
  for (std::uint32_t p = span.begin; p < span.end; ++p) {
    ParetoPoint& point = out[p - span.begin];
    point.load = pipe.arena.load[p];
    point.host = pipe.arena.host[p];
    pipe.reconstruct(p, point.cut);
  }
  return out;
}

std::vector<double> region_min_loads(const Colouring& colouring) {
  const CruTree& tree = colouring.tree();
  std::vector<double> min_load(tree.size(), 0.0);
  for (const CruId v : tree.postorder()) {
    if (!colouring.is_assignable(v)) continue;
    const double cut_here = tree.subtree_sat_time(v) + tree.node(v).comm_up;
    if (tree.node(v).is_sensor()) {
      min_load[v.index()] = cut_here;
      continue;
    }
    double descend = 0.0;
    for (const CruId c : tree.node(v).children) descend += min_load[c.index()];
    min_load[v.index()] = std::min(cut_here, descend);
  }
  return min_load;
}

ParetoDpResult pareto_dp_solve(const Colouring& colouring, const ParetoDpOptions& options) {
  TS_REQUIRE(options.objective.valid(), "pareto_dp_solve: bad objective");

  // Every colour folds its region frontiers through one pipeline, one
  // colour after another -- the same fold solve_warm_dp runs, with no
  // cache. Phase-span attributes are deterministic, so the timing-stripped
  // trace of a solve is byte-identity-safe.
  const std::size_t colours = colouring.tree().satellite_count();
  obs::Span solve_span(obs::trace(), "dp.solve");
  solve_span.attr("colours", static_cast<std::uint64_t>(colours));
  static const obs::CounterSite solves("treesat_dp_solves_total", "Arena-path Pareto-DP solves");
  static const obs::HistogramSite colour_points("treesat_dp_colour_frontier_points",
                                                "Merged frontier width per colour pipeline",
                                                obs::MetricClass::kDeterministic);
  solves.add();

  pareto_internal::ColourPipeline pipe;
  std::vector<pareto_internal::Span> merged(colours);
  {
    obs::Span fold_span(obs::trace(), "dp.fold");
    for (std::size_t c = 0; c < colours; ++c) {
      obs::Span colour_span(obs::trace(), "dp.colour");
      const pareto_internal::MergeCounters before = pipe.counters;
      const std::span<const CruId> regions = colouring.regions_of(SatelliteId{c});
      const pareto_internal::Span span =
          pipe.fold(regions.size(), options.max_frontier, [&](std::size_t k) {
            return pipe.region(colouring, regions[k], options.max_frontier);
          });
      merged[c] = span;
      const std::uint64_t generated = pipe.counters.generated - before.generated;
      const std::uint64_t kept = pipe.counters.kept - before.kept;
      colour_span.attr("colour", static_cast<std::uint64_t>(c));
      colour_span.attr("merges", pipe.counters.merges - before.merges);
      colour_span.attr("generated", generated);
      colour_span.attr("kept", kept);
      colour_span.attr("frontier", static_cast<std::uint64_t>(span.size()));
      colour_span.attr("prune_ratio", generated == 0 ? 1.0
                                                     : static_cast<double>(kept) /
                                                           static_cast<double>(generated));
      colour_points.observe(static_cast<double>(span.size()));
    }
  }

  return pareto_internal::finish_solve(colouring, options, pipe, merged);
}

}  // namespace treesat
