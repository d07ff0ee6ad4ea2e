#include "core/colouring.hpp"

namespace treesat {

Colouring::Colouring(const CruTree& tree) : tree_(&tree) {
  const CruTree::Topology& topo = *tree.topo_;
  std::call_once(topo.colour_once, [&] { topo.colour = structure_of(tree); });
  s_ = topo.colour.get();
  for (const CruId v : s_->host_only) forced_host_time_ += tree.node(v).host_time;
}

std::shared_ptr<const ColourStructure> Colouring::structure_of(const CruTree& tree) {
  auto out = std::make_shared<ColourStructure>();
  ColourStructure& s = *out;
  const std::size_t n = tree.size();
  s.colour.assign(n, SatelliteId{});

  // Bottom-up propagation: every child has a larger id than its parent.
  for (std::size_t i = n; i-- > 0;) {
    const CruId v{i};
    const CruNode nd = tree.node(v);
    if (nd.is_sensor()) {
      s.colour[v.index()] = nd.satellite;
      continue;
    }
    SatelliteId common;
    bool clash = false;
    for (const CruId c : nd.children) {
      const SatelliteId cc = s.colour[c.index()];
      if (!cc.valid()) {  // conflicting child poisons the parent
        clash = true;
        break;
      }
      if (!common.valid()) {
        common = cc;
      } else if (common != cc) {
        clash = true;
        break;
      }
    }
    s.colour[v.index()] = clash ? SatelliteId{} : common;
  }

  // Regions in preorder: an assignable node whose parent is not assignable
  // opens one, every other assignable node joins its parent's. The root is
  // never assignable, so every assignable node has a parent to test.
  const auto assignable = [&](CruId v) { return v != tree.root() && s.colour[v.index()].valid(); };
  s.position.assign(n, 0);
  std::vector<std::uint32_t>& region = s.position;  // region id per node until the fill below
  std::vector<std::uint32_t> region_size;
  for (const CruId v : tree.preorder()) {
    if (!assignable(v)) {
      s.host_only.push_back(v);
      continue;
    }
    const CruId p = tree.node(v).parent;
    if (assignable(p)) {
      region[v.index()] = region[p.index()];
    } else {
      region[v.index()] = static_cast<std::uint32_t>(s.region_roots.size());
      s.region_roots.push_back(v);
      region_size.push_back(0);
    }
    ++region_size[region[v.index()]];
  }

  // Group the regions by colour. Disjoint subtrees come in preorder in
  // left-to-right order, so each colour's regions stay in leaf-span order.
  const std::size_t colours = tree.satellite_count();
  const std::size_t regions = s.region_roots.size();
  s.colour_begin.assign(colours + 1, 0);
  for (const CruId r : s.region_roots) ++s.colour_begin[s.colour[r.index()].index() + 1];
  for (std::size_t c = 0; c < colours; ++c) s.colour_begin[c + 1] += s.colour_begin[c];
  std::vector<std::uint32_t> slot(regions);  // preorder region id -> index in s.regions
  std::vector<std::uint32_t> next(s.colour_begin.begin(), s.colour_begin.end() - 1);
  s.regions.resize(regions);
  s.node_begin.assign(regions + 1, 0);
  for (std::size_t i = 0; i < regions; ++i) {
    const CruId r = s.region_roots[i];
    slot[i] = next[s.colour[r.index()].index()]++;
    s.regions[slot[i]] = r;
    s.node_begin[slot[i] + 1] = region_size[i];
  }
  for (std::size_t i = 0; i < regions; ++i) s.node_begin[i + 1] += s.node_begin[i];

  // A region's subtree is contiguous in the tree's preorder, so one more
  // preorder pass lays out every canonical enumeration.
  std::vector<std::uint32_t> fill(s.node_begin.begin(), s.node_begin.end() - 1);
  s.nodes.resize(s.node_begin.back());
  for (const CruId v : tree.preorder()) {
    if (!assignable(v)) continue;
    const std::uint32_t j = slot[region[v.index()]];
    s.position[v.index()] = fill[j] - s.node_begin[j];
    s.nodes[fill[j]++] = v;
  }
  return out;
}

bool Colouring::is_assignable(CruId v) const {
  if (v == tree_->root()) return false;
  return colour(v).valid();
}

std::span<const CruId> Colouring::regions_of(SatelliteId colour) const {
  if (colour.index() + 1 >= s_->colour_begin.size()) return {};
  const std::uint32_t begin = s_->colour_begin[colour.index()];
  return {s_->regions.data() + begin, s_->colour_begin[colour.index() + 1] - begin};
}

std::span<const CruId> Colouring::region_nodes(SatelliteId colour, std::size_t k) const {
  TS_REQUIRE(k < regions_of(colour).size(),
             "region_nodes: colour " << colour << " has no region " << k);
  const std::size_t i = s_->colour_begin[colour.index()] + k;
  return {s_->nodes.data() + s_->node_begin[i], s_->node_begin[i + 1] - s_->node_begin[i]};
}

std::vector<CruId> Colouring::conflict_nodes() const {
  std::vector<CruId> out;
  for (std::size_t i = 0; i < tree_->size(); ++i) {
    if (is_conflict(CruId{i})) out.push_back(CruId{i});
  }
  return out;
}

}  // namespace treesat
