// Plain-text round-trip serialization of CRU trees.
//
// The format is line-based and diff-friendly so that scenario files can live
// in version control and experiment configurations can be archived next to
// their results:
//
//   cru_tree v1
//   # id parent kind name host_time sat_time comm_up satellite
//   0 - compute Root 5 0 0 -
//   1 0 compute Filter 2 3 1.5 -
//   2 1 sensor ECG 0 0 0.5 0
//
// Nodes appear in id order; the builder assigns ids in insertion order, so
// parents always precede children. Node names must be whitespace-free and
// unique.
#pragma once

#include <iosfwd>
#include <string>

#include "tree/cru_tree.hpp"

namespace treesat {

/// True when `name` can appear in the v1 text format: non-empty and free of
/// whitespace. write_text enforces this; anything that manufactures node
/// names (e.g. subtree insertion, core/incremental.hpp) should too, so
/// perturbed trees stay serializable.
[[nodiscard]] bool serializable_name(const std::string& name);

/// Serializes `tree` to the v1 text format.
[[nodiscard]] std::string to_text(const CruTree& tree);
void write_text(std::ostream& os, const CruTree& tree);

/// Parses the v1 text format. Throws InvalidArgument on malformed input.
[[nodiscard]] CruTree tree_from_text(const std::string& text);

}  // namespace treesat
