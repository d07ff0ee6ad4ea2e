// The colouring scheme (paper §5.1, Fig 5).
//
// Each satellite gets a distinguishable colour; the colour of each sensor's
// pinned satellite is propagated from the leaves towards the root. A node
// whose children's colours agree inherits that colour -- it is *assignable*:
// it may execute either on the host or on that (its *correspondent*)
// satellite. A node whose subtree reaches sensors on two or more satellites
// is a *conflict* node: it must consume context from multiple satellites and
// can only execute on the host (the paper's CRU1/CRU2/CRU3).
//
// The colour of a tree edge <parent, v> is the colour of v (the side that
// would end up on a satellite if the edge were cut); conflict nodes' edges
// are uncolourable and can never be cut.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "tree/cru_tree.hpp"

namespace treesat {

/// The part of a colouring that depends on the tree's topology alone: the
/// per-node colours, the region roots, each colour's regions in leaf-span
/// order and each region's canonical node enumeration. Built once per
/// topology (see CruTree) and shared by every Colouring of a tree of that
/// shape.
struct ColourStructure {
  std::vector<SatelliteId> colour;
  std::vector<CruId> region_roots;
  /// Regions grouped by colour, each colour's in leaf-span order: colour
  /// c's are regions[colour_begin[c] .. colour_begin[c + 1]).
  std::vector<std::uint32_t> colour_begin;
  std::vector<CruId> regions;
  /// Canonical enumerations, region after region in `regions` order:
  /// region i's nodes are nodes[node_begin[i] .. node_begin[i + 1]).
  std::vector<std::uint32_t> node_begin;
  std::vector<CruId> nodes;
  /// Each assignable node's position in its region's enumeration.
  std::vector<std::uint32_t> position;
  /// The host-only nodes (root and conflict nodes), in preorder.
  std::vector<CruId> host_only;
};

/// A tree's colouring: the shared ColourStructure of its topology plus
/// forced_host_time(), the one cost-dependent value, so colouring a drifted
/// tree (CruTree::rescaled) costs one pass over the host-only nodes.
class Colouring {
 public:
  /// Colours `tree`: propagates colours bottom-up, O(n), the first time a
  /// tree of its topology is coloured. The colouring holds a reference: the
  /// tree must outlive it (temporaries are rejected).
  explicit Colouring(const CruTree& tree);
  explicit Colouring(CruTree&&) = delete;

  /// The correspondent satellite of v; invalid for conflict nodes.
  [[nodiscard]] SatelliteId colour(CruId v) const { return s_->colour.at(v.index()); }

  /// True when v's subtree spans sensors of >= 2 satellites (v is host-only).
  [[nodiscard]] bool is_conflict(CruId v) const { return !colour(v).valid(); }

  /// True when v may be placed on a satellite: v is monochromatic and is not
  /// the root (the root always runs on the host).
  [[nodiscard]] bool is_assignable(CruId v) const;

  /// Roots of the maximal monochromatic subtrees (the highest assignable
  /// nodes), in preorder: every assignable node lies in exactly one such
  /// subtree. These are the "colour regions" that the coloured SSB search
  /// expands (Fig 9) and the Pareto DP processes independently.
  [[nodiscard]] const std::vector<CruId>& region_roots() const { return s_->region_roots; }

  /// Region roots of one colour, in left-to-right (leaf-span) order.
  [[nodiscard]] std::span<const CruId> regions_of(SatelliteId colour) const;

  /// The canonical node enumeration of the k-th region of regions_of(colour):
  /// the region's subtree in preorder, children left to right.
  [[nodiscard]] std::span<const CruId> region_nodes(SatelliteId colour, std::size_t k) const;

  /// v's position in its region's canonical enumeration (0 for the region
  /// root); meaningful for assignable nodes only.
  [[nodiscard]] std::uint32_t region_position(CruId v) const {
    return s_->position.at(v.index());
  }

  /// All conflict nodes (always includes the root unless the whole tree is
  /// monochromatic below it -- the root itself is reported according to its
  /// propagated colour, not its forced host placement).
  [[nodiscard]] std::vector<CruId> conflict_nodes() const;

  /// Σ h over the nodes that can never leave the host: the root plus every
  /// conflict node. This is the S-floor of any assignment.
  [[nodiscard]] double forced_host_time() const { return forced_host_time_; }

  [[nodiscard]] const CruTree& tree() const { return *tree_; }

 private:
  [[nodiscard]] static std::shared_ptr<const ColourStructure> structure_of(const CruTree& tree);

  const CruTree* tree_;
  const ColourStructure* s_;  ///< owned by the tree's topology
  double forced_host_time_ = 0.0;
};

}  // namespace treesat
