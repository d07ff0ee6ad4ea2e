#include "tree/cru_tree.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <stdexcept>

namespace treesat {

void CruTree::finish_costs() {
  const std::size_t n = size();
  cost_.resize(kCostArrays * n);
  const double* const host = cost_.data() + kHost * n;
  const double* const sat = cost_.data() + kSat * n;
  const double* const comm = cost_.data() + kComm * n;
  double* const subtree = cost_.data() + kSubtreeSat * n;

  // The cost rule. A cost that is finite on its own can still make a sum
  // overflow, so the total is bounded with a factor-two headroom: every sum
  // a solver forms is a partial sum of it, whatever its order. A NaN or a
  // negative cost fails `negative`; an infinite one makes the total infinite.
  double total = 0.0;
  bool negative = false;
  for (std::size_t i = 0; i < n; ++i) {
    negative |= !(host[i] >= 0.0) || !(sat[i] >= 0.0) || !(comm[i] >= 0.0);
    total += host[i] + sat[i] + comm[i];
  }
  if (negative || !(total <= DBL_MAX / 2)) {
    for (std::size_t k = 0; k < 3 * n; ++k) {
      TS_REQUIRE(std::isfinite(cost_[k]) && cost_[k] >= 0.0,
                 "CruTree: node '" << topo_->name[k % n] << "' has cost " << cost_[k]
                                   << " (want a finite non-negative number)");
    }
    TS_REQUIRE(false, "CruTree: the costs sum to " << total << ", past the bound DBL_MAX / 2");
  }
  total_cost_ = total;

  // A node's sum is its own s plus its children's sums, left to right. Every
  // child has a larger id than its parent, so descending ids finish all
  // children first while walking the rows in memory order.
  const std::vector<Topology::Row>& row = topo_->row;
  for (std::size_t i = n; i-- > 0;) {
    double s_sum = sat[i];
    for (const CruId c : ids(row[i].first_child, row[i].child_count)) {
      s_sum += subtree[c.index()];
    }
    subtree[i] = s_sum;
  }
  total_h_ = 0.0;
  for (const CruId v : postorder()) total_h_ += host[v.index()];
}

void CruTree::require_scales(double host_scale, double sat_scale, double comm_scale) {
  for (const double scale : {host_scale, sat_scale, comm_scale}) {
    TS_REQUIRE(std::isfinite(scale) && scale > 0.0,
               "CruTree::rescaled: scales must be finite and positive, got " << scale);
  }
}

void CruTree::node_out_of_range(CruId id) {
  throw std::out_of_range("CruTree: no node " + std::to_string(id.value()));
}

bool CruTree::is_ancestor_or_self(CruId u, CruId v) const {
  TS_REQUIRE(u.valid() && u.index() < size(), "is_ancestor_or_self: bad node " << u);
  TS_REQUIRE(v.valid() && v.index() < size(), "is_ancestor_or_self: bad node " << v);
  const Topology::Place& pu = topo_->place[u.index()];
  const Topology::Place& pv = topo_->place[v.index()];
  return pu.pre <= pv.pre && pv.pre < pu.pre + pu.size;
}

CruId CruTree::by_name(const std::string& name) const {
  const std::vector<std::string>& names = topo_->name;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return CruId{i};
  }
  throw InvalidArgument("CruTree::by_name: no node named '" + name + "'");
}

CruId CruTreeBuilder::root(std::string name, double host_time) {
  TS_REQUIRE(nodes_.empty(), "root() must be the first node added");
  TS_REQUIRE(host_time >= 0.0, "root: negative host_time " << host_time);
  // The root never runs on a satellite and its edge cannot be cut.
  return add_node({std::move(name), CruKind::kCompute, CruId{}, SatelliteId{}, host_time, 0.0,
                   0.0});
}

CruId CruTreeBuilder::compute(CruId parent, std::string name, double host_time, double sat_time,
                              double comm_up) {
  TS_REQUIRE(host_time >= 0.0, "compute: negative host_time " << host_time);
  TS_REQUIRE(sat_time >= 0.0, "compute: negative sat_time " << sat_time);
  TS_REQUIRE(comm_up >= 0.0, "compute: negative comm_up " << comm_up);
  return add_node(
      {std::move(name), CruKind::kCompute, parent, SatelliteId{}, host_time, sat_time, comm_up});
}

CruId CruTreeBuilder::sensor(CruId parent, std::string name, SatelliteId satellite,
                             double comm_up) {
  TS_REQUIRE(satellite.valid(), "sensor: invalid satellite id");
  TS_REQUIRE(comm_up >= 0.0, "sensor: negative comm_up " << comm_up);
  const CruId id =
      add_node({std::move(name), CruKind::kSensor, parent, satellite, 0.0, 0.0, comm_up});
  satellite_count_ = std::max(satellite_count_, satellite.index() + 1);
  return id;
}

CruId CruTreeBuilder::add_node(Node node) {
  if (nodes_.empty()) {
    TS_REQUIRE(!node.parent.valid(), "add_node: root() must be the first node added");
  } else {
    TS_REQUIRE(node.parent.valid() && node.parent.index() < nodes_.size(),
               "add_node: bad parent id " << node.parent);
    TS_REQUIRE(nodes_[node.parent.index()].kind != CruKind::kSensor,
               "add_node: sensors cannot have children");
  }
  nodes_.push_back(std::move(node));
  return CruId{nodes_.size() - 1};
}

CruTree CruTreeBuilder::build() {
  const std::size_t n = nodes_.size();
  TS_REQUIRE(n > 0, "build: tree has no root");
  auto topo = std::make_shared<CruTree::Topology>();
  CruTree::Topology& t = *topo;
  std::vector<CruTree::Topology::Row>& row = t.row;
  std::vector<CruTree::Topology::Place>& place = t.place;
  row.resize(n);
  place.resize(n);

  // CSR children: a parent precedes its children and ids ascend in
  // insertion order, so a counting pass over the ids lists every node's
  // children left to right.
  for (std::size_t i = 1; i < n; ++i) ++row[nodes_[i].parent.index()].child_count;
  std::uint32_t sensors = 0;
  for (std::size_t i = 0, next = 0; i < n; ++i) {
    const Node& nd = nodes_[i];
    TS_REQUIRE(!(nd.kind == CruKind::kCompute && row[i].child_count == 0),
               "build: compute CRU '" << nd.name
                                      << "' is a leaf; every leaf must be a sensor "
                                         "(attach a sensor or remove the node)");
    row[i].parent = nd.parent;
    row[i].satellite = nd.satellite;
    row[i].kind = nd.kind;
    row[i].first_child = static_cast<std::uint32_t>(next);
    next += row[i].child_count;
    sensors += nd.kind == CruKind::kSensor ? 1 : 0;
  }
  t.ids.resize(3 * n - 1 + sensors);
  CruId* const children = t.ids.data();
  CruId* const preorder = children + (n - 1);
  CruId* const postorder = preorder + n;
  CruId* const leaves = postorder + n;
  {
    std::vector<std::uint32_t> next(n);
    for (std::size_t i = 0; i < n; ++i) next[i] = row[i].first_child;
    for (std::size_t i = 1; i < n; ++i) children[next[nodes_[i].parent.index()]++] = CruId{i};
  }

  // Subtree sizes and sensor counts, children before parents (descending
  // ids), then each child's preorder position, first sensor and depth,
  // parents before children: a child starts where its left siblings end.
  // The postorder follows from those numbers.
  std::vector<std::uint32_t> below(n, 0);  // sensors in the subtree
  for (std::size_t i = n; i-- > 1;) {
    CruTree::Topology::Place& parent = place[nodes_[i].parent.index()];
    below[i] += nodes_[i].kind == CruKind::kSensor ? 1 : 0;
    parent.size += place[i].size;
    below[nodes_[i].parent.index()] += below[i];
  }
  for (std::size_t v = 0; v < n; ++v) {
    const CruTree::Topology::Place& at = place[v];
    std::uint32_t pre = at.pre + 1;
    std::uint32_t leaf = at.first_leaf;
    for (const CruId c : std::span<const CruId>(children + row[v].first_child,
                                                row[v].child_count)) {
      CruTree::Topology::Place& child = place[c.index()];
      child.depth = at.depth + 1;
      child.pre = pre;
      child.first_leaf = leaf;
      pre += child.size;
      leaf += below[c.index()];
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    CruTree::Topology::Place& at = place[v];
    at.last_leaf = at.first_leaf + below[v] - 1;
    preorder[at.pre] = CruId{v};
    // Finished before v: the nodes entered before it that are not its
    // ancestors, then its descendants.
    postorder[at.pre - at.depth + at.size - 1] = CruId{v};
    if (row[v].child_count == 0) leaves[at.first_leaf] = CruId{v};
  }

  CruTree tree;
  tree.cost_.resize(CruTree::kCostArrays * n);
  double* const cost = tree.cost_.data();
  t.name.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Node& nd = nodes_[i];
    cost[CruTree::kHost * n + i] = nd.host_time;
    cost[CruTree::kSat * n + i] = nd.sat_time;
    cost[CruTree::kComm * n + i] = nd.comm_up;
    t.name.push_back(std::move(nd.name));
  }
  t.satellite_count = satellite_count_;
  tree.topo_ = std::move(topo);
  nodes_.clear();
  satellite_count_ = 0;
  tree.finish_costs();
  return tree;
}

}  // namespace treesat
