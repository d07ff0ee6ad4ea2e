// The CRU (Context Reasoning Unit) tree -- paper §3's task model.
//
// A context reasoning procedure is a rooted ordered tree:
//   * leaves are *sensors*: they capture raw context, perform no processing
//     (h = s = 0) and are physically wired to a specific satellite -- the
//     pinning that distinguishes this paper from Bokhari's original problem;
//   * internal nodes are *compute CRUs* with two profiled execution times,
//     h_i on the host and s_i on the node's correspondent satellite;
//   * every node i carries comm_up(i) = c_{i,parent(i)}: the time to ship one
//     frame of its output across the satellite->host link. It is paid exactly
//     when the tree edge above i is cut by an assignment (i stays on the
//     satellite side / is a sensor, parent(i) runs on the host). For sensors
//     this is the raw-frame cost c_{s,j} of §5.3.
//
// Children are *ordered*; the left-to-right order defines the planar
// embedding from which the assignment graph (paper Fig 6) is derived: a
// subtree always spans a contiguous interval of the left-to-right sensor
// sequence, which is precomputed here as `leaf_span`.
//
// The root always executes on the host (it feeds the context-aware
// application running there; the paper's assignment graph cannot cut above
// the root either).
//
// A tree is a shared topology plus its own costs. The topology -- names,
// kinds, parents, CSR children, the sensors' satellites and every index
// derived from them (pre- and postorder, leaf order and spans, depths,
// subtree sizes), and the colouring's structure once a tree of it is
// coloured (core/colouring.hpp) -- is immutable and held by std::shared_ptr,
// so the trees of one shape share one copy: CruTreeBuilder makes a new
// topology, rescaled() gives an existing one new costs (a profile drift
// changes costs, never shape). The h, s and comm_up arrays and their sums
// (subtree satellite time, total host time) belong to each tree.
//
// Cost rule, enforced wherever a tree gets costs (build() and rescaled()
// throw InvalidArgument): every cost is finite and non-negative, and
// Σ(h + s + comm_up) over the tree is at most DBL_MAX / 2, so no sum a
// solver forms reaches +inf in any summation order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"

namespace treesat {

/// Node role within a CRU tree.
enum class CruKind : std::uint8_t {
  kCompute,  ///< internal reasoning unit; may run on host or correspondent satellite
  kSensor,   ///< leaf; pinned to a satellite; zero processing cost
};

/// One node of a CRU tree, as a view into it (CruTree::node). It refers to
/// the tree's storage and is valid while the tree lives.
struct CruNode {
  const std::string& name;          ///< human-readable label ("CRU6", "ECG", ...)
  CruKind kind;
  CruId parent;                     ///< invalid for the root
  std::span<const CruId> children;  ///< ordered left to right
  double host_time;                 ///< h_i: processing time on the host
  double sat_time;                  ///< s_i: processing time on the correspondent satellite
  double comm_up;                   ///< c_{i,parent}: frame transfer time across the link
  SatelliteId satellite;            ///< pinned satellite; valid only for sensors

  [[nodiscard]] bool is_sensor() const { return kind == CruKind::kSensor; }
  [[nodiscard]] bool is_leaf() const { return children.empty(); }
};

/// Contiguous interval [first, last] (inclusive) of left-to-right sensor
/// positions covered by a subtree.
struct LeafSpan {
  std::size_t first = 0;
  std::size_t last = 0;

  [[nodiscard]] std::size_t width() const { return last - first + 1; }
  friend bool operator==(const LeafSpan&, const LeafSpan&) = default;
};

class CruTreeBuilder;
class Colouring;
struct ColourStructure;

/// Rooted ordered CRU tree: a shared immutable topology plus per-tree costs.
class CruTree {
 public:
  /// Number of nodes (sensors included).
  [[nodiscard]] std::size_t size() const { return topo_->row.size(); }
  /// Number of sensor leaves.
  [[nodiscard]] std::size_t sensor_count() const { return topo_->ids.size() + 1 - 3 * size(); }
  /// Number of distinct satellites referenced by sensors (max id + 1;
  /// satellites with no sensor attached simply never receive work).
  [[nodiscard]] std::size_t satellite_count() const { return topo_->satellite_count; }

  [[nodiscard]] CruId root() const { return CruId{0u}; }
  /// Node v; throws std::out_of_range for an id outside the tree.
  [[nodiscard]] CruNode node(CruId id) const;
  [[nodiscard]] CruNode operator[](CruId id) const { return node(id); }

  /// All node ids in preorder (root first, children left to right).
  [[nodiscard]] std::span<const CruId> preorder() const { return ids(size() - 1, size()); }
  /// All node ids in postorder (children before parents).
  [[nodiscard]] std::span<const CruId> postorder() const { return ids(2 * size() - 1, size()); }
  /// Sensor ids in left-to-right planar order.
  [[nodiscard]] std::span<const CruId> sensors_left_to_right() const {
    return ids(3 * size() - 1, sensor_count());
  }

  /// The [first,last] sensor positions covered by subtree(v).
  [[nodiscard]] LeafSpan leaf_span(CruId v) const {
    const Topology::Place& at = topo_->place.at(v.index());
    return LeafSpan{at.first_leaf, at.last_leaf};
  }
  /// Depth of v (root = 0).
  [[nodiscard]] std::size_t depth(CruId v) const { return topo_->place.at(v.index()).depth; }
  /// Σ s_i over subtree(v) -- the satellite-side work below and including v
  /// (sensors contribute 0). Used for β labelling (paper §5.3).
  [[nodiscard]] double subtree_sat_time(CruId v) const {
    return cost_[kSubtreeSat * size() + checked(v)];
  }
  /// Σ h_i over the whole tree; the delay of the trivial all-on-host
  /// assignment is total_host_time() + raw sensor shipping.
  [[nodiscard]] double total_host_time() const { return total_h_; }
  /// Σ(h + s + comm_up) over the tree, the sum the cost rule bounds.
  [[nodiscard]] double total_cost() const { return total_cost_; }

  /// True when both trees hold the same topology object: the same shape,
  /// names and satellites, possibly with different costs.
  [[nodiscard]] bool shares_topology_with(const CruTree& other) const {
    return topo_ == other.topo_;
  }

  /// This tree's topology with the h, s and comm_up of every node v for
  /// which `touched(v)` holds multiplied by host_scale, sat_scale and
  /// comm_scale. The result shares the topology; its sums are computed as
  /// CruTreeBuilder computes them. Throws InvalidArgument for a scale that
  /// is not finite and positive, or for products that break the cost rule.
  template <typename Touched>
  [[nodiscard]] CruTree rescaled(Touched&& touched, double host_scale, double sat_scale,
                                 double comm_scale) const {
    require_scales(host_scale, sat_scale, comm_scale);
    const std::size_t n = size();
    CruTree out;
    out.topo_ = topo_;
    out.cost_.reserve(kCostArrays * n);
    out.cost_.assign(cost_.begin(), cost_.begin() + static_cast<std::ptrdiff_t>(3 * n));
    double* const c = out.cost_.data();
    for (std::size_t i = 0; i < n; ++i) {
      if (!touched(CruId{i})) continue;
      c[kHost * n + i] *= host_scale;
      c[kSat * n + i] *= sat_scale;
      c[kComm * n + i] *= comm_scale;
    }
    out.finish_costs();
    return out;
  }

  /// True when u is an ancestor of v or u == v.
  [[nodiscard]] bool is_ancestor_or_self(CruId u, CruId v) const;

  /// Node lookup by (unique) name; throws InvalidArgument when absent.
  [[nodiscard]] CruId by_name(const std::string& name) const;

 private:
  friend class CruTreeBuilder;
  friend class Colouring;

  struct Topology {
    /// What node() reads.
    struct Row {
      CruId parent;
      SatelliteId satellite;
      std::uint32_t first_child = 0;  ///< children are ids[first_child ..
      std::uint32_t child_count = 0;  ///<   first_child + child_count)
      CruKind kind = CruKind::kCompute;
    };
    /// Where a node sits in the tree: its subtree is preorder[pre .. pre +
    /// size) and covers sensors first_leaf .. last_leaf.
    struct Place {
      std::uint32_t depth = 0;
      std::uint32_t pre = 0;
      std::uint32_t size = 1;
      std::uint32_t first_leaf = 0;
      std::uint32_t last_leaf = 0;
    };
    std::vector<std::string> name;
    std::vector<Row> row;
    std::vector<Place> place;
    /// Four id lists in one array: every node's children left to right
    /// (n - 1 ids in all), then the preorder (n), the postorder (n) and the
    /// sensors in leaf order.
    std::vector<CruId> ids;
    std::size_t satellite_count = 0;
    // The colouring's structural part (core/colouring.hpp) depends on the
    // topology alone: the first Colouring of a tree of this shape builds it,
    // and every later one, on any thread, shares it.
    mutable std::once_flag colour_once;
    mutable std::shared_ptr<const ColourStructure> colour;
  };

  /// cost_ holds four arrays of size() doubles, in this order.
  enum : std::size_t { kHost, kSat, kComm, kSubtreeSat, kCostArrays };

  CruTree() = default;
  [[nodiscard]] std::span<const CruId> ids(std::size_t first, std::size_t count) const {
    return {topo_->ids.data() + first, count};
  }
  /// v's index; throws std::out_of_range for an id outside the tree.
  [[nodiscard]] std::size_t checked(CruId v) const {
    if (v.index() >= size()) node_out_of_range(v);
    return v.index();
  }
  [[noreturn]] static void node_out_of_range(CruId id);
  /// rescaled()'s scales: finite and positive, so zero costs stay zero.
  static void require_scales(double host_scale, double sat_scale, double comm_scale);
  /// Applies the cost rule, then appends the subtree satellite sums and
  /// computes total_h_ (in postorder) and total_cost_. Every tree's costs pass
  /// through here.
  void finish_costs();

  std::shared_ptr<const Topology> topo_;
  std::vector<double> cost_;
  double total_h_ = 0.0;
  double total_cost_ = 0.0;
};

inline CruNode CruTree::node(CruId id) const {
  const std::size_t i = checked(id);
  const std::size_t n = size();
  const Topology& t = *topo_;
  const Topology::Row& r = t.row[i];
  return CruNode{t.name[i],
                 r.kind,
                 r.parent,
                 std::span<const CruId>(t.ids.data() + r.first_child, r.child_count),
                 cost_[kHost * n + i],
                 cost_[kSat * n + i],
                 cost_[kComm * n + i],
                 r.satellite};
}

/// Incremental builder; the only way to make a new topology. A node's parent
/// is added before it, so ids run parent before child. Enforces the model's
/// structural invariants at build():
///   * exactly one root, which is a compute node;
///   * every leaf is a sensor and every sensor is a leaf;
///   * the cost rule; sensors cost-free except comm_up.
class CruTreeBuilder {
 public:
  /// Creates the root compute CRU. Must be called exactly once, first.
  /// The root's comm_up is irrelevant (its edge cannot be cut) and fixed at 0.
  CruId root(std::string name, double host_time);

  /// Adds an internal compute CRU under `parent`.
  CruId compute(CruId parent, std::string name, double host_time, double sat_time,
                double comm_up);

  /// Adds a sensor leaf under `parent`, wired to `satellite`. `comm_up` is
  /// the raw-frame transfer time c_{s,parent}.
  CruId sensor(CruId parent, std::string name, SatelliteId satellite, double comm_up);

  /// Makes room for `nodes` nodes in all, for a caller that knows the count.
  void reserve(std::size_t nodes) { nodes_.reserve(nodes); }

  /// Validates and freezes the tree. The builder is left empty.
  [[nodiscard]] CruTree build();

 private:
  struct Node {
    std::string name;
    CruKind kind;
    CruId parent;
    SatelliteId satellite;
    double host_time;
    double sat_time;
    double comm_up;
  };
  CruId add_node(Node node);
  std::vector<Node> nodes_;
  std::size_t satellite_count_ = 0;
};

}  // namespace treesat
