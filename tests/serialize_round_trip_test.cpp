// Serialization wall for the v1 tree text format (tree/serialize.hpp).
//
// Property: tree_from_text(to_text(t)) is the *identity* on random CruTrees
// -- every structural field and every cost bit survives (write_text uses
// shortest-round-trip double formatting precisely so this holds). Plus a
// table of malformed inputs that must all fail with InvalidArgument rather
// than crash, mis-parse, or leak a std:: exception type.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tree/serialize.hpp"
#include "workload/generator.hpp"

namespace treesat {
namespace {

void expect_identical(const CruTree& a, const CruTree& b, const std::string& ctx) {
  ASSERT_EQ(a.size(), b.size()) << ctx;
  ASSERT_EQ(a.sensor_count(), b.sensor_count()) << ctx;
  ASSERT_EQ(a.satellite_count(), b.satellite_count()) << ctx;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const CruNode& na = a.node(CruId{i});
    const CruNode& nb = b.node(CruId{i});
    EXPECT_EQ(na.name, nb.name) << ctx << " node " << i;
    EXPECT_EQ(na.kind, nb.kind) << ctx << " node " << i;
    EXPECT_EQ(na.parent, nb.parent) << ctx << " node " << i;
    EXPECT_TRUE(std::ranges::equal(na.children, nb.children)) << ctx << " node " << i;
    // Exact bit equality, not tolerance: the format must not lose precision.
    EXPECT_EQ(na.host_time, nb.host_time) << ctx << " node " << i;
    EXPECT_EQ(na.sat_time, nb.sat_time) << ctx << " node " << i;
    EXPECT_EQ(na.comm_up, nb.comm_up) << ctx << " node " << i;
    EXPECT_EQ(na.satellite, nb.satellite) << ctx << " node " << i;
  }
}

TEST(SerializeRoundTrip, IdentityOverRandomTrees) {
  Rng rng(0x5E41A11);
  for (int iter = 0; iter < 100; ++iter) {
    TreeGenOptions gen;
    gen.compute_nodes = 1 + rng.index(24);
    gen.satellites = 1 + rng.index(5);
    gen.max_children = 1 + rng.index(4);
    const SensorPolicy policies[] = {SensorPolicy::kClustered, SensorPolicy::kScattered,
                                     SensorPolicy::kRoundRobin};
    gen.policy = policies[rng.index(3)];
    // Full-precision costs: uniform doubles exercise every mantissa bit.
    gen.min_cost = 0.0;
    gen.max_cost = iter % 3 == 0 ? 1e-3 : 1e6;
    const CruTree tree = random_tree(rng, gen);

    const std::string text = to_text(tree);
    const CruTree back = tree_from_text(text);
    expect_identical(tree, back, "iter " + std::to_string(iter));
    // Reserialization is stable: the format has one canonical rendering.
    EXPECT_EQ(to_text(back), text) << "iter " << iter;
  }
}

TEST(SerializeRoundTrip, HandWrittenFormatStillParses) {
  const std::string text =
      "cru_tree v1\n"
      "# id parent kind name host_time sat_time comm_up satellite\n"
      "\n"
      "0 - compute Root 5 0 0 -\n"
      "1 0 compute Filter 2 3 1.5 -\n"
      "2 1 sensor ECG 0 0 0.5 0\n";
  const CruTree tree = tree_from_text(text);
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.node(tree.by_name("Filter")).sat_time, 3.0);
  EXPECT_EQ(tree.node(tree.by_name("ECG")).satellite, SatelliteId{0u});
}

TEST(SerializeRoundTrip, NodeFieldsSplitOnAnyWhitespace) {
  const std::string text =
      "cru_tree v1\n"
      "0 - compute Root 5 0 0 -\r\n"
      "1\t0 compute  Filter 2 3 1.5 -\n"
      "2 1 sensor ECG 0 0 0.5 0 \r\n";
  const CruTree tree = tree_from_text(text);
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.node(tree.by_name("Filter")).comm_up, 1.5);
  EXPECT_EQ(tree.node(tree.by_name("ECG")).satellite, SatelliteId{0u});
}

TEST(SerializeRoundTrip, MalformedInputsAllThrowInvalidArgument) {
  const std::string root = "0 - compute Root 5 0 0 -\n";
  struct Case {
    const char* what;
    std::string text;
  };
  const std::vector<Case> cases = {
      {"empty input", ""},
      {"wrong header version", "cru_tree v2\n" + root},
      {"missing header", root},
      {"header case mismatch", "CRU_TREE v1\n" + root},
      {"header with trailing token", "cru_tree v1 extra\n" + root},
      {"no nodes at all", "cru_tree v1\n"},
      {"non-numeric id", "cru_tree v1\nx - compute Root 5 0 0 -\n"},
      {"negative id", "cru_tree v1\n-1 - compute Root 5 0 0 -\n"},
      {"ids not starting at 0", "cru_tree v1\n1 - compute Root 5 0 0 -\n"},
      {"duplicate id", "cru_tree v1\n" + root + "1 0 compute A 1 1 1 -\n"
                           "1 0 sensor S 0 0 1 0\n"},
      {"skipped id", "cru_tree v1\n" + root + "2 0 sensor S 0 0 1 0\n"},
      {"decreasing ids", "cru_tree v1\n" + root + "1 0 compute A 1 1 1 -\n"
                             "0 - compute Root2 5 0 0 -\n"},
      {"second root marker", "cru_tree v1\n" + root + "1 - compute A 1 1 1 -\n"},
      {"root is a sensor", "cru_tree v1\n0 - sensor Root 0 0 1 0\n"},
      {"non-numeric parent", "cru_tree v1\n" + root + "1 x sensor S 0 0 1 0\n"},
      {"parent equals the node", "cru_tree v1\n" + root + "1 1 sensor S 0 0 1 0\n"},
      {"parent after the node", "cru_tree v1\n" + root + "1 2 sensor S 0 0 1 0\n"},
      {"parent out of range", "cru_tree v1\n" + root + "1 7 sensor S 0 0 1 0\n"},
      {"parent overflows", "cru_tree v1\n" + root +
                               "1 999999999999999999999999 sensor S 0 0 1 0\n"},
      {"unknown kind", "cru_tree v1\n0 - widget Root 5 0 0 -\n"},
      {"missing fields", "cru_tree v1\n0 - compute Root 5\n"},
      {"only an id", "cru_tree v1\n0\n"},
      {"non-numeric host_time", "cru_tree v1\n0 - compute Root abc 0 0 -\n"},
      {"non-numeric sat_time", "cru_tree v1\n" + root + "1 0 compute A 1 x 1 -\n"},
      {"non-numeric comm_up", "cru_tree v1\n" + root + "1 0 sensor S 0 0 x 0\n"},
      {"negative host_time", "cru_tree v1\n0 - compute Root -5 0 0 -\n"},
      {"negative sat_time", "cru_tree v1\n" + root + "1 0 compute A 1 -1 1 -\n"
                                "2 1 sensor S 0 0 1 0\n"},
      {"negative comm_up", "cru_tree v1\n" + root + "1 0 sensor S 0 0 -1 0\n"},
      {"sensor without satellite", "cru_tree v1\n" + root + "1 0 sensor S 0 0 1 -\n"},
      {"sensor with bad satellite", "cru_tree v1\n" + root + "1 0 sensor S 0 0 1 x\n"},
      {"sensor with sentinel satellite",
       "cru_tree v1\n" + root + "1 0 sensor S 0 0 1 4294967295\n"},
      {"child under a sensor", "cru_tree v1\n" + root + "1 0 sensor S 0 0 1 0\n"
                                   "2 1 sensor T 0 0 1 0\n"},
      {"compute leaf", "cru_tree v1\n" + root + "1 0 compute A 1 1 1 -\n"},
      {"compute-only tree", "cru_tree v1\n" + root},
      // Every column parses as a whole token: these used to be accepted.
      // The first one is a fuzzer-found crash -- stream extraction read the
      // comm column as 0.5 and wrapped its tail into satellite 2153610320.
      {"comm_up with a numeric tail",
       "cru_tree v1\n" + root + "1 0 compute A 1 1 1 -\n2 1 sensor s0 0 0 1 0\n"
                                "3 1 sensor s1 0 0 0.5-07625708307377\n"},
      {"satellite beyond 32 bits", "cru_tree v1\n" + root + "1 0 sensor S 0 0 1 4294967296\n"},
      {"satellite with trailing junk", "cru_tree v1\n" + root + "1 0 sensor S 0 0 1 1x\n"},
      {"parent with a plus sign",
       "cru_tree v1\n" + root + "1 0 compute A 1 1 1 -\n2 +1 sensor S 0 0 1 0\n"},
      {"a ninth field", "cru_tree v1\n" + root + "1 0 sensor S 0 0 1 0 extra\n"},
      {"compute node with a satellite",
       "cru_tree v1\n" + root + "1 0 compute A 1 1 1 0\n2 1 sensor S 0 0 1 0\n"},
      // Costs are finite. A sensor's host and sat columns are never used,
      // so they are checked at parse time or not at all.
      {"infinite host_time", "cru_tree v1\n0 - compute Root inf 0 0 -\n1 0 sensor S 0 0 1 0\n"},
      {"nan sat_time", "cru_tree v1\n" + root + "1 0 compute A 1 nan 1 -\n2 1 sensor S 0 0 1 0\n"},
      {"infinite comm_up", "cru_tree v1\n" + root + "1 0 sensor S 0 0 infinity 0\n"},
      {"nan host_time on a sensor", "cru_tree v1\n" + root + "1 0 sensor S nan 0 1 0\n"},
      {"inf sat_time on a sensor", "cru_tree v1\n" + root + "1 0 sensor S 0 inf 1 0\n"},
      // A name picks one node: responses name cut nodes, and insert_probe
      // its parent, by name.
      {"repeated node names", "cru_tree v1\n" + root + "1 0 compute A 1 1 1 -\n"
                              "2 1 sensor S 0 0 1 0\n3 0 compute A 1 1 1 -\n"
                              "4 3 sensor S 0 0 1 1\n"},
      {"a sensor named like the root", "cru_tree v1\n" + root + "1 0 sensor Root 0 0 1 0\n"},
  };
  for (const Case& c : cases) {
    EXPECT_THROW((void)tree_from_text(c.text), InvalidArgument) << c.what;
  }
}

TEST(SerializeRoundTrip, WhitespaceNamesAreRejectedOnWrite) {
  CruTreeBuilder builder;
  const CruId root = builder.root("the root", 1.0);  // space: unserializable
  builder.sensor(root, "s", SatelliteId{0u}, 1.0);
  const CruTree tree = builder.build();
  EXPECT_THROW((void)to_text(tree), InvalidArgument);
}

}  // namespace
}  // namespace treesat
