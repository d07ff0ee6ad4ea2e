// The adapted coloured SSB search (paper §5.4, Figs 9-10): the paper's main
// algorithm, computing the minimum end-to-end-delay assignment of a CRU tree
// onto a host-satellites system.
//
// The search runs the §4.2 SSB iteration on the coloured assignment graph,
// where B(P) is the maximum *per-colour sum* of β. Eliminating edges with
// β(e) >= B(P_i) remains safe (any path through e has a per-colour sum, and
// hence a B, of at least β(e)); what breaks is *progress*: when B(P_i) is
// contributed by several same-coloured edges, no single edge need reach the
// threshold. The paper's remedy is the *expansion* step (Fig 9): a colour
// region -- the sub-DAG between the faces flanking one maximal monochromatic
// subtree -- is replaced by composite edges, one per path through the
// region, each carrying the summed σ and β of its members. A composite of
// the bottleneck colour then does reach B(P_i) and elimination proceeds;
// the expanded graph is exactly the E' of the paper's O(|E'|) claim.
//
// Going beyond the paper (which assumes expansion always restores
// progress): the number of composites equals the number of monotone cuts of
// the subtree, which can grow exponentially, so each region expansion is
// capped (`expansion_cap_per_region`). A stall that expansion cannot clear
// -- every region of the bottleneck colour is expanded or over the cap, as
// when one colour spans several disjoint regions whose composites each stay
// below the threshold -- or an iteration count past its cap hands the solve
// to the Pareto DP (core/pareto_dp.hpp), which solves the same objective
// exactly. The DP's cut replaces the SSB incumbent only when it is strictly
// better. `stats.used_fallback` reports the hand-off, so experiment E5 can
// measure how often the paper's assumption holds.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/assignment_graph.hpp"
#include "core/objective.hpp"

namespace treesat {

struct ColouredSsbOptions {
  SsbObjective objective = SsbObjective::end_to_end();
  /// Max composite edges when expanding one colour region; a region whose
  /// path count exceeds this stays unexpanded (the Pareto DP hand-off
  /// covers it).
  std::size_t expansion_cap_per_region = 65536;
  /// Expand regions eagerly up front instead of on stall. Mirrors the
  /// paper's presentation (expansion before elimination); the lazy default
  /// only pays for expansion when a stall actually occurs.
  bool eager_expansion = false;
  /// Known-feasible warm-start cut -- e.g. a ResolveSession's previous
  /// optimum re-evaluated after a perturbation (core/incremental.hpp). Its
  /// value becomes the initial SSB incumbent, so the threshold iteration
  /// terminates against a tight bound from round one instead of descending
  /// from +inf. Exactness is preserved: the search only discards paths that
  /// cannot strictly beat a value the warm cut already achieves. Among
  /// equal-valued optima the returned cut may be the warm one rather than a
  /// cold run's tie-break; stats.warm_started reports that the bound was
  /// applied. Not expressible in the registry spec grammar (it names
  /// concrete nodes).
  std::optional<std::vector<CruId>> warm_cut;
};

struct ColouredSsbStats {
  std::size_t iterations = 0;          ///< SSB iterations (shortest-path rounds)
  std::size_t edges_eliminated = 0;
  std::size_t regions_expanded = 0;
  std::size_t composite_edges = 0;     ///< composites materialized in total
  std::size_t expanded_edge_count = 0; ///< |E'|: live edges after all expansions
  /// A stall expansion could not clear (or the iteration cap) handed the
  /// solve to the Pareto DP, which finished it.
  bool used_fallback = false;
  bool stalled = false;                ///< a stall occurred (expansion or the DP engaged)
  bool warm_started = false;           ///< options.warm_cut seeded the incumbent
};

struct ColouredSsbResult {
  Assignment assignment;
  DelayBreakdown delay;
  double ssb_weight = 0.0;  ///< objective value (== delay.end_to_end() for S+B)
  ColouredSsbStats stats;
};

/// Solves for the SSB-optimal assignment of `ag`'s tree.
[[nodiscard]] ColouredSsbResult coloured_ssb_solve(const AssignmentGraph& ag,
                                                   const ColouredSsbOptions& options = {});

}  // namespace treesat
