// Oracles for the Pareto DP's fold engine (core/pareto_kernel.hpp), shared
// by the kernel and reference property suites and by bench_pareto_arena:
//
//   * merge_product_scalar -- the straight-line Minkowski merge the SIMD
//     kernel was derived from: same keep() calls, same counters, same throw
//     point, with a textbook binary heap seeded with every stream of a,
//     whichever operand is shorter, so every kernel-vs-oracle comparison
//     also checks that the kernel's choice of streamed side is invisible;
//   * the pre-arena reference engine -- recursive region frontiers,
//     sort-then-scan pruning, a full cut vector copied per product point,
//     and a sweep written independently of the engine's. Not for
//     production: it recurses per tree node and allocates per product
//     point, which is what makes it an easy oracle to trust;
//   * stress_shape -- the stress trace's pathological tree shapes, whose
//     merges are the lopsided ones.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/pareto_kernel.hpp"
#include "workload/generator.hpp"

namespace treesat::reference {

/// The scalar merge: every stream seeded up front, std heap operations,
/// the dominated-prefix skip as a per-element loop.
template <typename Keep>
void merge_product_scalar(const double* aload, const double* ahost, std::size_t na,
                          const double* bload, const double* bhost, std::size_t nb,
                          std::size_t max_frontier, pareto_internal::MergeCounters& counters,
                          Keep&& keep) {
  ++counters.merges;
  if (na == 0 || nb == 0) return;
  struct Entry {
    double load;
    double host;
    std::uint32_t i;
    std::uint32_t j;
  };
  const auto later = [](const Entry& x, const Entry& y) {
    if (x.load != y.load) return x.load > y.load;
    if (x.host != y.host) return x.host > y.host;
    if (x.i != y.i) return x.i > y.i;
    return x.j > y.j;
  };
  std::vector<Entry> heap;
  heap.reserve(na);
  for (std::uint32_t i = 0; i < na; ++i) {
    heap.push_back({aload[i] + bload[0], ahost[i] + bhost[0], i, 0});
  }
  std::make_heap(heap.begin(), heap.end(), later);

  // One point per distinct load: the load's (host, i, j)-least point,
  // kept if its host is below every kept point's. Equal loads pop
  // together, but one stream pops a rounding collision host-descending, so
  // the least point is only known once a larger load pops.
  double best_host = std::numeric_limits<double>::infinity();
  std::optional<Entry> group;  // the popped load's least point, if below best_host
  std::size_t kept = 0;
  const auto flush = [&] {
    if (!group) return;
    const Entry g = *group;
    group.reset();
    best_host = g.host;
    if (++kept > max_frontier) {
      throw ResourceLimit("pareto_dp: frontier exceeds max_frontier (" +
                          std::to_string(kept) + " points)");
    }
    ++counters.kept;
    keep(g.i, g.j, g.load, g.host);
  };
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Entry e = heap.back();
    heap.pop_back();
    ++counters.generated;
    if (group && group->load != e.load) flush();
    if (e.host < best_host && (!group || later(*group, e))) group = e;
    std::uint32_t j = e.j + 1;
    while (j < nb && ahost[e.i] + bhost[j] >= best_host) {
      ++counters.generated;  // skipped: dominated forever, never materialized
      ++j;
    }
    if (j < nb) {
      heap.push_back({aload[e.i] + bload[j], ahost[e.i] + bhost[j], e.i, j});
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  flush();
}

/// The two merge kernels as callables, so one driver runs either.
struct SimdKernel {
  template <typename... Args>
  void operator()(Args&&... args) const {
    pareto_internal::merge_product(std::forward<Args>(args)...);
  }
};
struct ScalarKernel {
  template <typename... Args>
  void operator()(Args&&... args) const {
    merge_product_scalar(std::forward<Args>(args)...);
  }
};

/// Runs `kernel` on two point frontiers and writes the kept points out
/// with their cuts concatenated (a's, then b's) -- the form the reference
/// minkowski returns, so the three can be compared point for point.
template <typename Kernel>
std::vector<ParetoPoint> merge_points(Kernel kernel, const std::vector<ParetoPoint>& a,
                                      const std::vector<ParetoPoint>& b,
                                      std::size_t max_frontier,
                                      pareto_internal::MergeCounters& counters) {
  std::vector<double> aload, ahost, bload, bhost;
  for (const ParetoPoint& p : a) {
    aload.push_back(p.load);
    ahost.push_back(p.host);
  }
  for (const ParetoPoint& p : b) {
    bload.push_back(p.load);
    bhost.push_back(p.host);
  }
  std::vector<ParetoPoint> out;
  kernel(aload.data(), ahost.data(), a.size(), bload.data(), bhost.data(), b.size(),
         max_frontier, counters, [&](std::uint32_t i, std::uint32_t j, double l, double h) {
           ParetoPoint p{l, h, a[i].cut};
           p.cut.insert(p.cut.end(), b[j].cut.begin(), b[j].cut.end());
           out.push_back(std::move(p));
         });
  return out;
}

template <typename Kernel>
std::vector<ParetoPoint> merge_points(Kernel kernel, const std::vector<ParetoPoint>& a,
                                      const std::vector<ParetoPoint>& b,
                                      std::size_t max_frontier) {
  pareto_internal::MergeCounters counters;
  return merge_points(kernel, a, b, max_frontier, counters);
}

/// Sorts by (load, host) and removes dominated points: keep a point only if
/// its host time is strictly below every point with smaller-or-equal load.
inline void prune(std::vector<ParetoPoint>& points, std::size_t max_frontier) {
  std::sort(points.begin(), points.end(), [](const ParetoPoint& a, const ParetoPoint& b) {
    if (a.load != b.load) return a.load < b.load;
    return a.host < b.host;
  });
  std::vector<ParetoPoint> kept;
  double best_host = std::numeric_limits<double>::infinity();
  for (ParetoPoint& p : points) {
    if (p.host < best_host) {
      best_host = p.host;
      kept.push_back(std::move(p));
    }
  }
  if (kept.size() > max_frontier) {
    throw ResourceLimit("pareto_dp: frontier exceeds max_frontier (" +
                        std::to_string(kept.size()) + " points)");
  }
  points = std::move(kept);
}

/// Minkowski sum of two frontiers (loads add, hosts add, cuts concatenate),
/// as a full product then a prune.
inline std::vector<ParetoPoint> minkowski(const std::vector<ParetoPoint>& a,
                                          const std::vector<ParetoPoint>& b,
                                          std::size_t max_frontier) {
  std::vector<ParetoPoint> out;
  for (const ParetoPoint& pa : a) {
    for (const ParetoPoint& pb : b) {
      ParetoPoint p{pa.load + pb.load, pa.host + pb.host, pa.cut};
      p.cut.insert(p.cut.end(), pb.cut.begin(), pb.cut.end());
      out.push_back(std::move(p));
    }
  }
  prune(out, max_frontier);
  return out;
}

/// Frontier of the region rooted at v, by recursion over the subtree.
inline std::vector<ParetoPoint> node_frontier(const Colouring& colouring, CruId v,
                                              std::size_t max_frontier) {
  const CruTree& tree = colouring.tree();
  const CruNode& nd = tree.node(v);

  // Option 1: cut the edge above v -- the whole subtree on the satellite.
  ParetoPoint cut_here{tree.subtree_sat_time(v) + nd.comm_up, 0.0, {v}};
  if (nd.is_sensor()) return {std::move(cut_here)};

  // Option 2: v on the host; children combine independently.
  std::vector<ParetoPoint> combined{ParetoPoint{}};  // neutral element
  for (const CruId c : nd.children) {
    combined = minkowski(combined, node_frontier(colouring, c, max_frontier), max_frontier);
  }
  for (ParetoPoint& p : combined) p.host += nd.host_time;

  combined.push_back(std::move(cut_here));
  prune(combined, max_frontier);
  return combined;
}

/// End-to-end reference solve: per-colour frontiers folded from the
/// neutral point, then every distinct load tried as the bottleneck, each
/// colour taking its cheapest-host point that fits. Fills the stats the
/// reference can observe (max_region_frontier, max_colour_frontier,
/// candidates_swept); the arena counters stay zero.
inline ParetoDpResult solve(const Colouring& colouring, const ParetoDpOptions& options = {}) {
  const std::size_t colours = colouring.tree().satellite_count();
  ParetoDpStats stats;
  std::vector<std::vector<ParetoPoint>> per_colour(colours);
  std::vector<double> candidates;
  for (std::size_t c = 0; c < colours; ++c) {
    std::vector<ParetoPoint> acc{ParetoPoint{}};
    for (const CruId r : colouring.regions_of(SatelliteId{c})) {
      const std::vector<ParetoPoint> f = node_frontier(colouring, r, options.max_frontier);
      stats.max_region_frontier = std::max(stats.max_region_frontier, f.size());
      acc = minkowski(acc, f, options.max_frontier);
    }
    stats.max_colour_frontier = std::max(stats.max_colour_frontier, acc.size());
    for (const ParetoPoint& p : acc) candidates.push_back(p.load);
    per_colour[c] = std::move(acc);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  if (candidates.empty()) candidates.push_back(0.0);
  stats.candidates_swept = candidates.size();

  double best = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> best_pick;
  for (const double L : candidates) {
    std::vector<std::size_t> pick;
    double host_sum = 0.0;
    double achieved = 0.0;
    for (const std::vector<ParetoPoint>& f : per_colour) {
      // Loads strictly increase and hosts strictly decrease along a pruned
      // frontier, so the last point that fits is the cheapest one.
      const auto fits = std::upper_bound(f.begin(), f.end(), L,
                                         [](double l, const ParetoPoint& p) { return l < p.load; });
      if (fits == f.begin()) break;
      pick.push_back(static_cast<std::size_t>(fits - f.begin()) - 1);
      host_sum += f[pick.back()].host;
      achieved = std::max(achieved, f[pick.back()].load);
    }
    if (pick.size() < colours) continue;
    const double value = options.objective.value(colouring.forced_host_time() + host_sum, achieved);
    if (value < best) {
      best = value;
      best_pick = std::move(pick);
    }
  }

  std::vector<CruId> cut;
  for (std::size_t c = 0; c < colours; ++c) {
    const std::vector<CruId>& chosen = per_colour[c][best_pick[c]].cut;
    cut.insert(cut.end(), chosen.begin(), chosen.end());
  }
  Assignment assignment(colouring, std::move(cut));
  DelayBreakdown delay = assignment.delay();
  const double objective = delay.objective(options.objective);
  return ParetoDpResult{std::move(assignment), std::move(delay), objective, stats};
}

/// The stress tenants' tree shapes (workload/traffic.cpp stress_instance)
/// at about `nodes` nodes: shape 0 is a two-colour chain with a side sensor
/// every 64 spine nodes, 1 a star of nodes / 2 arms, 2 a colour-skewed
/// tree. Their merges are lopsided: a long accumulated frontier ⊕ a
/// one-to-three point child or region.
inline CruTree stress_shape(Rng& rng, int shape, std::size_t nodes) {
  switch (shape) {
    case 0: {
      ChainGenOptions o;
      o.compute_nodes = nodes;
      o.satellites = 2;
      o.sensor_every = 64;
      o.host_cost_every = 16;
      return chain_tree(rng, o);
    }
    case 1: {
      StarGenOptions o;
      o.arms = nodes / 2;
      return star_tree(rng, o);
    }
    default: {
      SkewGenOptions o;
      o.compute_nodes = nodes;
      return skewed_tree(rng, o);
    }
  }
}

}  // namespace treesat::reference
