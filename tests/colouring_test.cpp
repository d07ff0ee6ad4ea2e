// Colouring-scheme tests (paper §5.1): the running example's documented
// conflict set, region structure, and a property check against an
// independent recomputation on random trees.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>

#include "common/rng.hpp"
#include "core/colouring.hpp"
#include "workload/generator.hpp"
#include "workload/scenarios.hpp"

namespace treesat {
namespace {

TEST(Colouring, PaperExampleConflictSetIsCru123) {
  const CruTree tree = paper_running_example();
  const Colouring colouring(tree);
  std::set<std::string> conflicts;
  for (const CruId v : colouring.conflict_nodes()) {
    conflicts.insert(tree.node(v).name);
  }
  const std::set<std::string> expected{"CRU1", "CRU2", "CRU3"};
  EXPECT_EQ(conflicts, expected);
}

TEST(Colouring, PaperExampleColours) {
  const CruTree tree = paper_running_example();
  const Colouring colouring(tree);
  const SatelliteId R{0u}, Y{1u}, B{2u}, G{3u};
  EXPECT_EQ(colouring.colour(tree.by_name("CRU4")), R);
  EXPECT_EQ(colouring.colour(tree.by_name("CRU9")), R);
  EXPECT_EQ(colouring.colour(tree.by_name("CRU5")), B);
  EXPECT_EQ(colouring.colour(tree.by_name("CRU6")), B);
  EXPECT_EQ(colouring.colour(tree.by_name("CRU13")), B);
  EXPECT_EQ(colouring.colour(tree.by_name("CRU7")), Y);
  EXPECT_EQ(colouring.colour(tree.by_name("CRU8")), G);
  EXPECT_EQ(colouring.colour(tree.by_name("CRU12")), G);
  EXPECT_TRUE(colouring.is_conflict(tree.by_name("CRU1")));
  EXPECT_TRUE(colouring.is_conflict(tree.by_name("CRU2")));
  EXPECT_TRUE(colouring.is_conflict(tree.by_name("CRU3")));
}

TEST(Colouring, PaperExampleRegions) {
  const CruTree tree = paper_running_example();
  const Colouring colouring(tree);
  // Maximal monochromatic subtrees: CRU4 (R), CRU5 and CRU6 (B, two
  // regions!), CRU7 (Y), CRU8 (G).
  EXPECT_EQ(colouring.region_roots().size(), 5u);
  const auto b_regions = colouring.regions_of(SatelliteId{2u});
  ASSERT_EQ(b_regions.size(), 2u);
  EXPECT_EQ(tree.node(b_regions[0]).name, "CRU5");  // left of CRU6 in leaf order
  EXPECT_EQ(tree.node(b_regions[1]).name, "CRU6");
  EXPECT_EQ(colouring.regions_of(SatelliteId{0u}).size(), 1u);
  EXPECT_EQ(colouring.regions_of(SatelliteId{1u}).size(), 1u);
  EXPECT_EQ(colouring.regions_of(SatelliteId{3u}).size(), 1u);
}

TEST(Colouring, ForcedHostTimeIsRootPlusConflicts) {
  const CruTree tree = paper_running_example();
  const Colouring colouring(tree);
  // h1 + h2 + h3 = 1 + 2 + 3.
  EXPECT_DOUBLE_EQ(colouring.forced_host_time(), 6.0);
}

TEST(Colouring, RootIsNeverAssignableEvenWhenMonochromatic) {
  CruTreeBuilder b;
  const CruId root = b.root("root", 1.0);
  const CruId a = b.compute(root, "a", 1.0, 1.0, 1.0);
  b.sensor(a, "s", SatelliteId{0u}, 1.0);
  const CruTree tree = b.build();
  const Colouring colouring(tree);
  EXPECT_FALSE(colouring.is_conflict(tree.root()));  // monochromatic...
  EXPECT_FALSE(colouring.is_assignable(tree.root()));  // ...but pinned to host
  ASSERT_EQ(colouring.region_roots().size(), 1u);
  EXPECT_EQ(colouring.region_roots()[0], a);
}

struct ColouringCase {
  std::uint64_t seed;
  std::size_t nodes;
  std::size_t satellites;
  SensorPolicy policy;
};

class ColouringProperty : public ::testing::TestWithParam<ColouringCase> {};

TEST_P(ColouringProperty, ConflictIffSubtreeSpansTwoSatellites) {
  const ColouringCase c = GetParam();
  Rng rng(c.seed);
  TreeGenOptions o;
  o.compute_nodes = c.nodes;
  o.satellites = c.satellites;
  o.policy = c.policy;
  const CruTree tree = random_tree(rng, o);
  const Colouring colouring(tree);

  // Independent recomputation: collect the satellite set below each node.
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const CruId v{i};
    std::set<std::uint32_t> sats;
    std::vector<CruId> stack{v};
    while (!stack.empty()) {
      const CruId u = stack.back();
      stack.pop_back();
      if (tree.node(u).is_sensor()) sats.insert(tree.node(u).satellite.value());
      for (const CruId ch : tree.node(u).children) stack.push_back(ch);
    }
    EXPECT_EQ(colouring.is_conflict(v), sats.size() >= 2) << tree.node(v).name;
    if (sats.size() == 1) {
      EXPECT_EQ(colouring.colour(v).value(), *sats.begin());
    }
  }
}

TEST_P(ColouringProperty, RegionsPartitionAssignableNodes) {
  const ColouringCase c = GetParam();
  Rng rng(c.seed ^ 0x9999);
  TreeGenOptions o;
  o.compute_nodes = c.nodes;
  o.satellites = c.satellites;
  o.policy = c.policy;
  const CruTree tree = random_tree(rng, o);
  const Colouring colouring(tree);

  std::vector<int> covered(tree.size(), 0);
  for (const CruId r : colouring.region_roots()) {
    EXPECT_TRUE(colouring.is_assignable(r));
    const CruId p = tree.node(r).parent;
    EXPECT_FALSE(p.valid() && colouring.is_assignable(p))
        << "region root with assignable parent is not maximal";
    std::vector<CruId> stack{r};
    while (!stack.empty()) {
      const CruId u = stack.back();
      stack.pop_back();
      ++covered[u.index()];
      for (const CruId ch : tree.node(u).children) stack.push_back(ch);
    }
  }
  for (std::size_t i = 0; i < tree.size(); ++i) {
    EXPECT_EQ(covered[i], colouring.is_assignable(CruId{i}) ? 1 : 0);
  }
}

TEST_P(ColouringProperty, RegionNodesEnumerateEachRegionInPreorder) {
  const ColouringCase c = GetParam();
  Rng rng(c.seed ^ 0x7777);
  TreeGenOptions o;
  o.compute_nodes = c.nodes;
  o.satellites = c.satellites;
  o.policy = c.policy;
  const CruTree tree = random_tree(rng, o);
  const Colouring colouring(tree);

  std::size_t regions = 0;
  for (std::size_t s = 0; s < tree.satellite_count(); ++s) {
    const SatelliteId colour{s};
    const std::span<const CruId> roots = colouring.regions_of(colour);
    regions += roots.size();
    for (std::size_t k = 0; k < roots.size(); ++k) {
      EXPECT_EQ(colouring.colour(roots[k]), colour);
      if (k > 0) {
        EXPECT_LT(tree.leaf_span(roots[k - 1]).last, tree.leaf_span(roots[k]).first);
      }
      // The region's subtree in preorder, children left to right.
      std::vector<CruId> expected;
      std::vector<CruId> stack{roots[k]};
      while (!stack.empty()) {
        const CruId u = stack.back();
        stack.pop_back();
        expected.push_back(u);
        const std::span<const CruId> ch = tree.node(u).children;
        for (auto it = ch.rbegin(); it != ch.rend(); ++it) stack.push_back(*it);
      }
      const std::span<const CruId> nodes = colouring.region_nodes(colour, k);
      ASSERT_TRUE(std::ranges::equal(nodes, expected)) << tree.node(roots[k]).name;
      for (std::size_t pos = 0; pos < nodes.size(); ++pos) {
        EXPECT_EQ(colouring.region_position(nodes[pos]), pos);
      }
    }
  }
  EXPECT_EQ(regions, colouring.region_roots().size());
}

TEST(Colouring, TreesOfOneTopologyShareTheStructure) {
  // A drift changes costs, never shape: a tree that shares its parent's
  // topology shares its colouring's structure, and only the forced host
  // time follows the new costs.
  const CruTree base = paper_running_example();
  const CruTree drifted = base.rescaled([](CruId) { return true; }, 2.0, 1.0, 1.0);
  const Colouring a(base);
  const Colouring b(drifted);
  EXPECT_EQ(a.regions_of(SatelliteId{2u}).data(), b.regions_of(SatelliteId{2u}).data());
  EXPECT_EQ(&a.region_roots(), &b.region_roots());
  EXPECT_EQ(b.forced_host_time(), 2.0 * a.forced_host_time());
}

std::vector<ColouringCase> colouring_cases() {
  std::vector<ColouringCase> cases;
  std::uint64_t seed = 31;
  for (const SensorPolicy policy :
       {SensorPolicy::kScattered, SensorPolicy::kClustered, SensorPolicy::kRoundRobin}) {
    for (const std::size_t n : {1u, 5u, 20u, 60u}) {
      for (const std::size_t sats : {1u, 3u, 6u}) {
        cases.push_back({seed++, n, sats, policy});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeded, ColouringProperty, ::testing::ValuesIn(colouring_cases()));

}  // namespace
}  // namespace treesat
