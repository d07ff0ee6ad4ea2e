// Pareto-frontier dynamic program -- treesat's scalable exact solver.
//
// This is our extension beyond the paper (README, "Performance: the arena
// Pareto-DP core"). Instead of searching the assignment graph, it exploits
// the structure of the §3 objective directly:
//
//   minimize  λ_S·(H_0 + Σ_c host_c) + λ_B·max_c load_c
//
// where H_0 is the forced host time (root + conflict nodes), and for each
// colour c, (load_c, host_c) ranges over the outcomes of cutting colour c's
// regions: load_c = satellite-c work + uplink time, host_c = the h of the
// region nodes left above the cut. For one region the achievable outcomes
// form a small Pareto frontier computed bottom-up:
//
//   F(sensor) = { (comm_up, 0) }
//   F(v)      = prune( {(sat_subtree(v)+comm_up(v), 0)}          -- cut at v
//                      ∪  (⊕_children F) + (0, h_v) )            -- v on host
//
// (⊕ is the Minkowski sum: loads add, host times add.) Regions of the same
// colour combine with another ⊕; finally a linear sweep over candidate
// bottleneck values L picks, per colour, the cheapest point with load <= L
// and evaluates the objective at the *achieved* maximum. The sweep is exact
// for every λ: for the optimal solution's bottleneck L*, each per-colour
// choice is at least as good as the optimum's, so candidate L* already
// attains the optimal value.
//
// Engine (core/pareto_kernel.hpp, the one fold engine of the repo):
//   * Frontiers live in a FrontierArena: structure-of-arrays (load[],
//     host[]) stored contiguously, one span per frontier. No per-point cut
//     vectors exist during the solve -- every point carries backpointers
//     (left parent, right parent, cut edge) and the optimal cut is
//     reconstructed once, at the end, for the chosen points only.
//   * ⊕ is a merge, not a product-then-sort: both inputs are sorted by
//     load with strictly decreasing host, so the product is a k-way merge
//     with one sorted stream per point of the shorter input, each walking
//     the longer one, dominance-pruned on the fly with a SIMD skip-ahead.
//     Dominated points are skipped without ever being materialized. The
//     folds put the growing accumulator on the left and a one-to-three
//     point child or region on the right, so a merge runs a handful of
//     streams; ties break on the caller's (load, host, i, j) and one point
//     per distinct load survives, so the output does not depend on which
//     side streams.
//   * The sweep takes its candidate bottleneck values by merging the
//     colours' load-sorted frontiers -- one cursor per colour, no sort.
//   * The bottom-up pass is an explicit iterative post-order traversal, so
//     chain-shaped trees tens of thousands of nodes deep cannot overflow
//     the stack (workload/generator.hpp's chain_tree is the regression
//     workload for this).
//   * Colours fold one after another through one ColourPipeline, so a
//     solve runs on the calling thread; parallelism lives across the
//     instances of a batch (core/executor.hpp).
//   * The warm session (core/incremental.hpp) runs the same per-colour
//     fold, importing its cached region and colour frontiers into the
//     arena as leaf points, and finishes through the same sweep.
//
// Frontier sizes are worst-case exponential (the problem embeds tree
// knapsack) but domination pruning keeps them tiny on realistic cost
// distributions; `max_frontier` guards the pathological case.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/assignment.hpp"
#include "core/objective.hpp"

namespace treesat {

/// Counters of one solve, cold or warm, aggregated in colour order; a warm
/// session solve counts the work it did, not the frontiers it reused.
struct ParetoDpStats {
  std::size_t max_region_frontier = 0;  ///< largest region frontier built
  std::size_t max_colour_frontier = 0;  ///< largest per-colour frontier after merging
  std::size_t candidates_swept = 0;     ///< bottleneck candidates evaluated
  std::size_t arena_bytes = 0;           ///< total frontier-arena storage
  std::size_t peak_frontier = 0;         ///< widest frontier built anywhere in the DP
  std::size_t minkowski_merges = 0;      ///< merge operations performed
  std::size_t merge_points_generated = 0;///< product points examined by merges
  std::size_t merge_points_kept = 0;     ///< points surviving dominance pruning

  /// Fraction of examined Minkowski product points discarded as dominated.
  [[nodiscard]] double prune_ratio() const {
    if (merge_points_generated == 0) return 0.0;
    return 1.0 - static_cast<double>(merge_points_kept) /
                     static_cast<double>(merge_points_generated);
  }
};

struct ParetoDpResult {
  Assignment assignment;
  DelayBreakdown delay;
  double objective = 0.0;
  ParetoDpStats stats;
};

struct ParetoDpOptions {
  SsbObjective objective = SsbObjective::end_to_end();
  /// Frontier size limit; exceeding it throws ResourceLimit.
  std::size_t max_frontier = std::size_t{1} << 20;
};

/// Exact optimal assignment via the Pareto DP.
[[nodiscard]] ParetoDpResult pareto_dp_solve(const Colouring& colouring,
                                             const ParetoDpOptions& options = {});

/// One point of a (load, host) frontier with its cut written out -- the
/// form region_frontier returns (the engine itself never materializes a
/// cut per point).
struct ParetoPoint {
  double load = 0.0;          ///< satellite time: work below the cut + uplink
  double host = 0.0;          ///< host time of region nodes above the cut
  std::vector<CruId> cut;     ///< cut nodes realizing the point
};

/// A frontier in the form the warm session caches it (core/incremental.hpp)
/// and the fold engine imports it (core/pareto_kernel.hpp): loads and hosts
/// as two arrays, sorted like every frontier, plus what rebuilds a point's
/// cut.
///   * A region entry keeps its cuts in one CSR block: point i's cut is
///     cut_positions[cut_offsets[i], cut_offsets[i + 1]), canonical
///     preorder positions within the region.
///   * A colour entry keeps no cut. Point i took index
///     region_index[i * R + k] in the frontier of the colour's k-th region
///     (R regions, regions_of order); its cut is those R region points'
///     cuts, concatenated.
struct FrontierEntry {
  std::vector<double> load;
  std::vector<double> host;
  std::vector<std::uint32_t> cut_offsets;    ///< region entries: size() + 1 offsets
  std::vector<std::uint32_t> cut_positions;  ///< region entries
  std::vector<std::uint32_t> region_index;   ///< colour entries: size() * R indices

  [[nodiscard]] std::size_t size() const { return load.size(); }
};

/// Pareto frontier of one region (subtree rooted at an assignable node),
/// sorted by load ascending / host strictly descending.
[[nodiscard]] std::vector<ParetoPoint> region_frontier(const Colouring& colouring,
                                                       CruId region_root,
                                                       std::size_t max_frontier);

/// Per-node minimum achievable satellite load: for every assignable v, the
/// smallest load coordinate of F(v) -- min(cut at v, Σ children minima) --
/// computed by one iterative postorder sweep (non-assignable nodes read 0).
/// This is the admissible per-region bound branch-and-bound
/// (heuristics/branch_bound.cpp) seeds its colour-load suffixes with.
[[nodiscard]] std::vector<double> region_min_loads(const Colouring& colouring);

}  // namespace treesat
