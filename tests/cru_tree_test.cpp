// Unit tests for the CRU tree model: builder contracts, derived indices,
// and serialization round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>

#include "tree/cru_tree.hpp"
#include "tree/serialize.hpp"
#include "workload/scenarios.hpp"

namespace treesat {
namespace {

CruTree small_tree() {
  CruTreeBuilder b;
  const CruId root = b.root("root", 1.0);
  const CruId a = b.compute(root, "a", 2.0, 3.0, 0.5);
  const CruId c = b.compute(root, "c", 4.0, 5.0, 1.5);
  b.sensor(a, "s0", SatelliteId{0u}, 0.25);
  b.sensor(a, "s1", SatelliteId{1u}, 0.75);
  b.sensor(c, "s2", SatelliteId{0u}, 1.25);
  return b.build();
}

TEST(CruTree, BasicShape) {
  const CruTree t = small_tree();
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.sensor_count(), 3u);
  EXPECT_EQ(t.satellite_count(), 2u);
  EXPECT_EQ(t.node(t.root()).name, "root");
  EXPECT_FALSE(t.node(t.root()).parent.valid());
  EXPECT_EQ(t.node(t.by_name("a")).children.size(), 2u);
}

TEST(CruTree, PreorderAndPostorderAreConsistent) {
  const CruTree t = small_tree();
  ASSERT_EQ(t.preorder().size(), t.size());
  ASSERT_EQ(t.postorder().size(), t.size());
  EXPECT_EQ(t.preorder().front(), t.root());
  EXPECT_EQ(t.postorder().back(), t.root());
  // Preorder: parents strictly before children.
  std::vector<std::size_t> pos(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) pos[t.preorder()[i].index()] = i;
  for (std::size_t v = 1; v < t.size(); ++v) {
    EXPECT_LT(pos[t.node(CruId{v}).parent.index()], pos[v]);
  }
}

TEST(CruTree, LeafOrderFollowsChildInsertionOrder) {
  const CruTree t = small_tree();
  const auto sensors = t.sensors_left_to_right();
  ASSERT_EQ(sensors.size(), 3u);
  EXPECT_EQ(t.node(sensors[0]).name, "s0");
  EXPECT_EQ(t.node(sensors[1]).name, "s1");
  EXPECT_EQ(t.node(sensors[2]).name, "s2");
}

TEST(CruTree, LeafSpansAreContiguousAndNested) {
  const CruTree t = small_tree();
  EXPECT_EQ(t.leaf_span(t.root()), (LeafSpan{0, 2}));
  EXPECT_EQ(t.leaf_span(t.by_name("a")), (LeafSpan{0, 1}));
  EXPECT_EQ(t.leaf_span(t.by_name("c")), (LeafSpan{2, 2}));
  EXPECT_EQ(t.leaf_span(t.by_name("s1")), (LeafSpan{1, 1}));
}

TEST(CruTree, SubtreeSatTimeSumsSensorFreeWork) {
  const CruTree t = small_tree();
  EXPECT_DOUBLE_EQ(t.subtree_sat_time(t.by_name("a")), 3.0);   // sensors add 0
  EXPECT_DOUBLE_EQ(t.subtree_sat_time(t.by_name("c")), 5.0);
  EXPECT_DOUBLE_EQ(t.subtree_sat_time(t.root()), 8.0);         // root s = 0
  EXPECT_DOUBLE_EQ(t.total_host_time(), 7.0);
}

TEST(CruTree, AncestorQueries) {
  const CruTree t = small_tree();
  EXPECT_TRUE(t.is_ancestor_or_self(t.root(), t.by_name("s2")));
  EXPECT_TRUE(t.is_ancestor_or_self(t.by_name("a"), t.by_name("a")));
  EXPECT_TRUE(t.is_ancestor_or_self(t.by_name("a"), t.by_name("s1")));
  EXPECT_FALSE(t.is_ancestor_or_self(t.by_name("a"), t.by_name("s2")));
  EXPECT_FALSE(t.is_ancestor_or_self(t.by_name("s1"), t.by_name("a")));
}

TEST(CruTree, DepthsAreLevels) {
  const CruTree t = small_tree();
  EXPECT_EQ(t.depth(t.root()), 0u);
  EXPECT_EQ(t.depth(t.by_name("a")), 1u);
  EXPECT_EQ(t.depth(t.by_name("s0")), 2u);
}

TEST(CruTreeBuilder, RejectsComputeLeaves) {
  CruTreeBuilder b;
  const CruId root = b.root("root", 1.0);
  b.compute(root, "dangling", 1.0, 1.0, 1.0);
  EXPECT_THROW(b.build(), InvalidArgument);
}

TEST(CruTreeBuilder, RejectsChildrenUnderSensors) {
  CruTreeBuilder b;
  const CruId root = b.root("root", 1.0);
  const CruId s = b.sensor(root, "s", SatelliteId{0u}, 1.0);
  EXPECT_THROW(b.compute(s, "x", 1.0, 1.0, 1.0), InvalidArgument);
}

TEST(CruTreeBuilder, RejectsNegativeCosts) {
  CruTreeBuilder b;
  const CruId root = b.root("root", 1.0);
  EXPECT_THROW(b.compute(root, "x", -1.0, 1.0, 1.0), InvalidArgument);
  EXPECT_THROW(b.compute(root, "x", 1.0, -1.0, 1.0), InvalidArgument);
  EXPECT_THROW(b.compute(root, "x", 1.0, 1.0, -1.0), InvalidArgument);
  EXPECT_THROW(b.sensor(root, "s", SatelliteId{0u}, -1.0), InvalidArgument);
}

TEST(CruTreeBuilder, RejectsSecondRootAndEmptyBuild) {
  CruTreeBuilder b;
  EXPECT_THROW(b.build(), InvalidArgument);
  b.root("root", 1.0);
  EXPECT_THROW(b.root("again", 1.0), InvalidArgument);
}

TEST(CruTreeBuilder, RejectsCostsThatBreakTheCostRule) {
  // Every cost is finite, and the costs sum to at most DBL_MAX / 2.
  const auto build = [](double root_host, double comm) {
    CruTreeBuilder b;
    const CruId root = b.root("root", root_host);
    const CruId a = b.compute(root, "a", 1.0, 1.0, comm);
    b.sensor(a, "s", SatelliteId{0u}, comm);
    return b.build();
  };
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(build(inf, 1.0), InvalidArgument);
  EXPECT_THROW(build(1.0, inf), InvalidArgument);
  // Each cost finite, their sum past DBL_MAX.
  EXPECT_THROW(build(1.7e308, 1.7e308), InvalidArgument);
  EXPECT_THROW(build(DBL_MAX / 4, DBL_MAX / 4), InvalidArgument);
  EXPECT_NO_THROW(static_cast<void>(build(DBL_MAX / 4, DBL_MAX / 8)));  // sums to DBL_MAX / 2
}

TEST(CruTree, RescaledSharesTheTopologyAndSumsLikeTheBuilder) {
  const CruTree t = small_tree();
  const CruId c = t.by_name("c");
  const CruId s2 = t.by_name("s2");
  const CruTree scaled =
      t.rescaled([&](CruId v) { return v != c && v != s2; }, 3.0, 0.5, 2.0);
  EXPECT_TRUE(scaled.shares_topology_with(t));
  EXPECT_FALSE(small_tree().shares_topology_with(t));

  CruTreeBuilder b;
  const CruId root = b.root("root", 3.0);
  const CruId a = b.compute(root, "a", 6.0, 1.5, 1.0);
  const CruId c_built = b.compute(root, "c", 4.0, 5.0, 1.5);
  b.sensor(a, "s0", SatelliteId{0u}, 0.5);
  b.sensor(a, "s1", SatelliteId{1u}, 1.5);
  b.sensor(c_built, "s2", SatelliteId{0u}, 1.25);
  const CruTree built = b.build();
  for (std::size_t i = 0; i < t.size(); ++i) {
    const CruId v{i};
    EXPECT_EQ(scaled.node(v).name, built.node(v).name);
    EXPECT_TRUE(std::ranges::equal(scaled.node(v).children, built.node(v).children));
    EXPECT_EQ(scaled.node(v).host_time, built.node(v).host_time);
    EXPECT_EQ(scaled.node(v).sat_time, built.node(v).sat_time);
    EXPECT_EQ(scaled.node(v).comm_up, built.node(v).comm_up);
    EXPECT_EQ(scaled.subtree_sat_time(v), built.subtree_sat_time(v));
  }
  EXPECT_EQ(scaled.total_host_time(), built.total_host_time());
  // The source tree keeps its own costs.
  EXPECT_EQ(t.node(t.by_name("a")).host_time, 2.0);
}

TEST(CruTree, RescaledEnforcesTheCostRule) {
  const CruTree t = small_tree();
  const auto all = [](CruId) { return true; };
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(static_cast<void>(t.rescaled(all, bad, 1.0, 1.0)), InvalidArgument) << bad;
    EXPECT_THROW(static_cast<void>(t.rescaled(all, 1.0, 1.0, bad)), InvalidArgument) << bad;
  }
  // Each product finite on its own, their sum past DBL_MAX / 2.
  EXPECT_THROW(static_cast<void>(t.rescaled(all, 2e307, 1.0, 1.0)), InvalidArgument);
  // A product that overflows to +inf.
  const CruTree big = t.rescaled(all, 1e300, 1e300, 1e300);
  EXPECT_THROW(static_cast<void>(big.rescaled(all, 1e300, 1e300, 1e300)), InvalidArgument);
}

TEST(CruTree, NodeRejectsIdsOutsideTheTree) {
  const CruTree t = small_tree();
  EXPECT_THROW(static_cast<void>(t.node(CruId{t.size()})), std::out_of_range);
  EXPECT_THROW(static_cast<void>(t.node(CruId{})), std::out_of_range);
  EXPECT_THROW(static_cast<void>(t.subtree_sat_time(CruId{t.size()})), std::out_of_range);
}

TEST(CruTree, ByNameThrowsOnUnknown) {
  const CruTree t = small_tree();
  EXPECT_THROW(static_cast<void>(t.by_name("nope")), InvalidArgument);
}

TEST(Serialize, RoundTripsSmallTree) {
  const CruTree t = small_tree();
  const std::string text = to_text(t);
  const CruTree back = tree_from_text(text);
  EXPECT_EQ(to_text(back), text);
  EXPECT_EQ(back.size(), t.size());
  EXPECT_EQ(back.sensor_count(), t.sensor_count());
  EXPECT_DOUBLE_EQ(back.node(back.by_name("a")).sat_time, 3.0);
  EXPECT_EQ(back.node(back.by_name("s1")).satellite, SatelliteId{1u});
}

TEST(Serialize, RoundTripsPaperExample) {
  const CruTree t = paper_running_example();
  const CruTree back = tree_from_text(to_text(t));
  EXPECT_EQ(to_text(back), to_text(t));
}

TEST(Serialize, RejectsMalformedInput) {
  EXPECT_THROW(tree_from_text("garbage"), InvalidArgument);
  EXPECT_THROW(tree_from_text("cru_tree v1\n0 - sensor s 0 0 0 0\n"), InvalidArgument);
  EXPECT_THROW(tree_from_text("cru_tree v1\n0 - compute r 1 0 0 -\n2 0 compute x 1 1 1 -\n"),
               InvalidArgument);
  EXPECT_THROW(tree_from_text("cru_tree v1\n0 - compute r 1 0 0 -\n1 0 sensor s 0 0 1 -\n"),
               InvalidArgument);
}

}  // namespace
}  // namespace treesat
