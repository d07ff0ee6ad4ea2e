// Doubly Weighted Graph (DWG) -- the paper's §4 substrate.
//
// A DWG is a directed multigraph in which every edge carries two ordered
// non-negative weights:
//   sigma (σ)  -- the "sum" weight;     S(P) = Σ σ(e) over a path P
//   beta  (β)  -- the "bottleneck" weight; B(P) = max β(e) over a path P
// and, for the coloured assignment graphs of §5, an optional colour: the
// coloured bottleneck weight of a path is max over colours of the per-colour
// β sums (paper §5.4).
//
// Parallel edges are first-class: the assignment graph of a CRU tree
// routinely contains several edges between the same face pair (one per tree
// edge of a unary chain), each with different weights. Algorithms therefore
// address edges by EdgeId, never by endpoint pair.
//
// Edges are never physically removed; the path-search algorithms of §4
// iteratively eliminate edges, which is expressed with an EdgeMask overlay so
// that a single graph can be searched concurrently with different masks.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"

namespace treesat {

/// Colour of a DWG edge. Colours index satellites in assignment graphs;
/// kUncoloured marks plain (§4-style) edges whose β participates in the
/// ordinary max-bottleneck.
using Colour = std::int32_t;
inline constexpr Colour kUncoloured = -1;

/// One directed edge of a DWG.
struct DwgEdge {
  VertexId from;
  VertexId to;
  double sigma = 0.0;  ///< sum weight σ(e) >= 0
  double beta = 0.0;   ///< bottleneck weight β(e) >= 0
  Colour colour = kUncoloured;
};

/// Overlay marking which edges are still "alive" during iterative
/// edge-elimination searches. Default-constructed masks treat every edge of
/// the graph they were created for as alive.
class EdgeMask {
 public:
  EdgeMask() = default;
  explicit EdgeMask(std::size_t edge_count) : alive_(edge_count, true), alive_count_(edge_count) {}

  [[nodiscard]] bool alive(EdgeId e) const { return alive_.at(e.index()); }
  [[nodiscard]] std::size_t alive_count() const { return alive_count_; }
  [[nodiscard]] std::size_t size() const { return alive_.size(); }

  /// Kills an edge; returns true if it was alive before the call.
  bool kill(EdgeId e) {
    if (!alive_.at(e.index())) return false;
    alive_[e.index()] = false;
    --alive_count_;
    return true;
  }

  /// Grows the mask to cover `edge_count` edges; new edges start alive.
  /// Used when composite edges are appended to a graph mid-search.
  void grow(std::size_t edge_count) {
    TS_REQUIRE(edge_count >= alive_.size(), "EdgeMask::grow cannot shrink");
    alive_count_ += edge_count - alive_.size();
    alive_.resize(edge_count, true);
  }

 private:
  std::vector<bool> alive_;
  std::size_t alive_count_ = 0;
};

/// Directed doubly weighted multigraph with dense vertex/edge ids.
class Dwg {
 public:
  Dwg() = default;
  /// Creates a graph with `vertex_count` isolated vertices.
  explicit Dwg(std::size_t vertex_count) : out_(vertex_count), in_(vertex_count) {}

  /// Appends a new isolated vertex and returns its id.
  VertexId add_vertex();

  /// Appends a directed edge u -> v. Weights must be non-negative (Dijkstra
  /// on σ requires it; β is a time, so negativity is meaningless).
  EdgeId add_edge(VertexId u, VertexId v, double sigma, double beta,
                  Colour colour = kUncoloured);

  [[nodiscard]] std::size_t vertex_count() const { return out_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  [[nodiscard]] const DwgEdge& edge(EdgeId e) const { return edges_.at(e.index()); }
  [[nodiscard]] std::span<const DwgEdge> edges() const { return edges_; }

  /// Ids of edges leaving / entering `v`, in insertion order.
  [[nodiscard]] std::span<const EdgeId> out_edges(VertexId v) const {
    return out_.at(v.index());
  }
  [[nodiscard]] std::span<const EdgeId> in_edges(VertexId v) const { return in_.at(v.index()); }

  /// A mask with every edge of this graph alive.
  [[nodiscard]] EdgeMask full_mask() const { return EdgeMask(edges_.size()); }

 private:
  std::vector<DwgEdge> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
};

/// A directed path: edge ids in order from the source to the target, plus the
/// three measures the §4/§5 algorithms need. Vertices are implied by edges;
/// an empty path (source == target) has S = B = 0.
struct Path {
  std::vector<EdgeId> edges;
  double s_weight = 0.0;        ///< S(P) = Σ σ
  double b_weight = 0.0;        ///< B(P): max β (uncoloured) or max per-colour β-sum
  bool coloured_b = false;      ///< which definition b_weight used

  [[nodiscard]] bool empty() const { return edges.empty(); }
  [[nodiscard]] std::size_t length() const { return edges.size(); }
};

/// Σ σ(e) over the path.
[[nodiscard]] double path_sum_weight(const Dwg& g, std::span<const EdgeId> path);

/// max β(e) over the path -- Bokhari's uncoloured bottleneck. 0 for empty paths.
[[nodiscard]] double path_bottleneck_max(const Dwg& g, std::span<const EdgeId> path);

/// Coloured bottleneck of §5.4: per-colour sums of β, maximized over colours.
/// Uncoloured edges each count as their own "colour" (their β enters the max
/// directly), matching the uncoloured definition when no edge is coloured.
[[nodiscard]] double path_bottleneck_coloured(const Dwg& g, std::span<const EdgeId> path);

/// Validates that `path` is a chain of alive edges from `s` to `t` and fills
/// in the measures. `coloured` selects the B definition.
[[nodiscard]] Path make_path(const Dwg& g, std::vector<EdgeId> edges, VertexId s, VertexId t,
                             bool coloured);

}  // namespace treesat
