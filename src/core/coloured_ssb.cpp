#include "core/coloured_ssb.hpp"

#include <limits>
#include <unordered_map>
#include <vector>

#include "core/pareto_dp.hpp"
#include "graph/path_enumeration.hpp"
#include "graph/shortest_path.hpp"

namespace treesat {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One colour region: the sub-DAG spanned by a maximal monochromatic subtree.
struct Region {
  CruId root;
  Colour colour = kUncoloured;
  VertexId entry;  ///< face left of the subtree's leaf span
  VertexId exit;   ///< face right of it
  std::vector<EdgeId> base_edges;  ///< working-graph ids of its original edges
  bool expanded = false;
  bool unexpandable = false;  ///< path count exceeded the cap
};

/// Mutable search state: the working graph (base edges + appended
/// composites), the alive mask, and the member mapping back to base edges.
struct Working {
  Dwg graph;
  EdgeMask mask;
  std::vector<std::vector<EdgeId>> members;  ///< per working edge: base edge ids, in order

  explicit Working(const Dwg& base) : graph(base), mask(base.full_mask()) {
    members.reserve(base.edge_count());
    for (std::size_t e = 0; e < base.edge_count(); ++e) {
      members.push_back({EdgeId{e}});
    }
  }

  /// Appends a composite edge and keeps the mask sized to the graph.
  void add_composite(VertexId u, VertexId v, double sigma, double beta, Colour colour,
                     std::vector<EdgeId> member_edges) {
    const EdgeId id = graph.add_edge(u, v, sigma, beta, colour);
    members.push_back(std::move(member_edges));
    mask.grow(graph.edge_count());
    TS_CHECK(mask.alive(id), "freshly added composite must be alive");
  }

  /// Flattens a working-graph path to base-graph edge ids, left to right.
  [[nodiscard]] std::vector<EdgeId> to_base_path(std::span<const EdgeId> path) const {
    std::vector<EdgeId> base;
    for (const EdgeId e : path) {
      const auto& m = members.at(e.index());
      base.insert(base.end(), m.begin(), m.end());
    }
    return base;
  }
};

/// Builds the region table from the colouring.
std::vector<Region> build_regions(const AssignmentGraph& ag, const Working& w) {
  const Colouring& col = ag.colouring();
  const CruTree& tree = col.tree();
  std::vector<Region> regions;
  std::unordered_map<std::uint32_t, std::size_t> by_root;  // region root -> index
  for (const CruId r : col.region_roots()) {
    Region reg;
    reg.root = r;
    reg.colour = static_cast<Colour>(col.colour(r).value());
    const LeafSpan span = tree.leaf_span(r);
    reg.entry = VertexId{span.first};
    reg.exit = VertexId{span.last + 1};
    by_root.emplace(r.value(), regions.size());
    regions.push_back(std::move(reg));
  }
  // Assign every base edge to the region of the maximal subtree containing
  // its cut node (walk up to the highest assignable ancestor).
  for (std::size_t e = 0; e < w.graph.edge_count(); ++e) {
    CruId v = ag.cut_node(EdgeId{e});
    CruId top = v;
    while (true) {
      const CruId p = tree.node(top).parent;
      if (!p.valid() || !col.is_assignable(p)) break;
      top = p;
    }
    const auto it = by_root.find(top.value());
    TS_CHECK(it != by_root.end(), "edge above '" << tree.node(v).name
                                                 << "' belongs to no colour region");
    regions[it->second].base_edges.push_back(EdgeId{e});
  }
  return regions;
}

/// Expands one region into composite edges (paper Fig 9): one composite per
/// entry->exit path using only the region's alive base edges. Returns false
/// (leaving the region untouched) when the path count exceeds the cap.
bool expand_region(Working& w, Region& region, std::size_t cap, ColouredSsbStats& stats) {
  if (region.expanded || region.unexpandable) return false;

  // Mask with only the region's alive edges.
  std::vector<bool> in_region(w.graph.edge_count(), false);
  for (const EdgeId e : region.base_edges) in_region[e.index()] = true;
  EdgeMask region_mask(w.graph.edge_count());
  for (std::size_t e = 0; e < w.graph.edge_count(); ++e) {
    const EdgeId eid{e};
    if (!in_region[e] || !w.mask.alive(eid)) region_mask.kill(eid);
  }

  if (count_simple_paths(w.graph, region.entry, region.exit, region_mask, cap) >= cap) {
    region.unexpandable = true;
    return false;
  }

  struct Composite {
    double sigma = 0.0;
    double beta = 0.0;
    std::vector<EdgeId> base;
  };
  std::vector<Composite> composites;
  for_each_simple_path(w.graph, region.entry, region.exit, region_mask, cap,
                       [&](std::span<const EdgeId> path) {
                         Composite c;
                         for (const EdgeId e : path) {
                           c.sigma += w.graph.edge(e).sigma;
                           c.beta += w.graph.edge(e).beta;
                         }
                         c.base = w.to_base_path(path);
                         composites.push_back(std::move(c));
                       });

  // Retire the originals, then materialize the composites.
  for (const EdgeId e : region.base_edges) w.mask.kill(e);
  for (Composite& c : composites) {
    w.add_composite(region.entry, region.exit, c.sigma, c.beta, region.colour,
                    std::move(c.base));
  }
  stats.composite_edges += composites.size();
  ++stats.regions_expanded;
  region.expanded = true;
  return true;
}

}  // namespace

ColouredSsbResult coloured_ssb_solve(const AssignmentGraph& ag,
                                     const ColouredSsbOptions& options) {
  TS_REQUIRE(options.objective.valid(), "coloured_ssb_solve: bad objective");
  const VertexId s = ag.source();
  const VertexId t = ag.target();

  Working w(ag.graph());
  ColouredSsbStats stats;
  std::vector<Region> regions = build_regions(ag, w);

  if (options.eager_expansion) {
    for (Region& r : regions) {
      expand_region(w, r, options.expansion_cap_per_region, stats);
    }
  }

  double ssb_can = kInf;
  std::optional<std::vector<EdgeId>> best_base;  // base-graph path of the candidate

  const auto remember = [&](const Path& p) {
    const double value = options.objective.value(p.s_weight, p.b_weight);
    if (value < ssb_can) {
      ssb_can = value;
      best_base = w.to_base_path(p.edges);
    }
  };
  const auto remember_cut = [&](const Assignment& cut) {
    remember(make_path(ag.graph(), ag.assignment_to_path(cut), s, t, /*coloured=*/true));
  };

  if (options.warm_cut) {
    // Seed the incumbent with the warm cut's value (validated against this
    // instance by the Assignment constructor) so the very first shortest
    // path can already terminate the iteration.
    remember_cut(Assignment(ag.colouring(), *options.warm_cut));
    stats.warm_started = true;
  }

  bool hand_off = false;  // the iteration cannot finish; the Pareto DP does
  // Iteration cap: each non-stalled round kills >= 1 edge, and each stall
  // expands >= 1 region; both are finite.
  const std::size_t cap = 4 * (ag.graph().edge_count() + regions.size() + 4) +
                          4 * options.expansion_cap_per_region;
  while (true) {
    if (stats.iterations >= cap) {
      // Only reachable through pathological expansion churn; the DP is
      // exact, so hand off to it rather than failing.
      hand_off = true;
      break;
    }
    ++stats.iterations;

    std::optional<Path> p = min_sum_path_dag(w.graph, s, t, w.mask, /*coloured=*/true);
    if (!p) break;  // disconnected: candidate optimal
    if (options.objective.s_coeff * p->s_weight >= ssb_can) break;
    remember(*p);

    const double threshold = p->b_weight;
    std::size_t killed = 0;
    for (std::size_t e = 0; e < w.graph.edge_count(); ++e) {
      const EdgeId eid{e};
      if (w.mask.alive(eid) && w.graph.edge(eid).beta >= threshold) {
        w.mask.kill(eid);
        ++killed;
      }
    }
    stats.edges_eliminated += killed;
    if (killed > 0) continue;

    // Stall: B(P_i) is a multi-edge colour sum (paper Fig 9's situation).
    stats.stalled = true;
    // Expand the unexpanded regions of the colours achieving the bottleneck,
    // preferring those actually traversed by P_i.
    std::unordered_map<Colour, double> sums;
    for (const EdgeId e : p->edges) {
      const DwgEdge& de = w.graph.edge(e);
      if (de.colour != kUncoloured) sums[de.colour] += de.beta;
    }
    bool expanded_any = false;
    for (Region& r : regions) {
      const auto it = sums.find(r.colour);
      if (it == sums.end() || it->second < threshold) continue;
      if (expand_region(w, r, options.expansion_cap_per_region, stats)) {
        expanded_any = true;
      }
    }
    if (!expanded_any) {
      // Nothing left to expand for the bottleneck colour (multi-region
      // colour or capped region): the iteration cannot make progress.
      hand_off = true;
      break;
    }
  }

  if (hand_off) {
    // The Pareto DP solves the same objective exactly; `remember` keeps its
    // cut only when it strictly beats the SSB incumbent.
    stats.used_fallback = true;
    ParetoDpOptions dp_options;
    dp_options.objective = options.objective;
    remember_cut(pareto_dp_solve(ag.colouring(), dp_options).assignment);
  }

  stats.expanded_edge_count = w.mask.alive_count();
  TS_CHECK(best_base.has_value(),
           "coloured SSB found no assignment; the all-on-host cut always exists");

  Assignment assignment = ag.path_to_assignment(*best_base);
  DelayBreakdown delay = assignment.delay();
  ColouredSsbResult result{std::move(assignment), std::move(delay), ssb_can, stats};
  return result;
}

}  // namespace treesat
