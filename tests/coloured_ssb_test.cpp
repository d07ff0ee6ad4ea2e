// Adapted coloured SSB tests (paper §5.4): stall detection, the Fig 9
// expansion step, composite-edge bookkeeping, the Pareto DP hand-off for
// stalls expansion cannot clear, and option plumbing.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/coloured_ssb.hpp"
#include "core/exhaustive.hpp"
#include "workload/generator.hpp"
#include "workload/scenarios.hpp"

namespace treesat {
namespace {

/// A tree engineered to need expansion: one blue region with an internal
/// chain, where the bottleneck of the min-S path is the *sum* of two blue
/// edges (paper Fig 9's b1 + b2 situation) -- no single edge reaches it, so
/// plain elimination stalls until the region is expanded.
CruTree fig9_style_tree() {
  CruTreeBuilder b;
  const CruId root = b.root("root", 1.0);
  // Blue region: chain u -> v with two sensors, so the topmost path can
  // cross two blue edges whose β sum is the satellite time.
  const CruId u = b.compute(root, "u", 10.0, 3.0, 1.0);
  const CruId v = b.compute(u, "v", 10.0, 3.0, 1.0);
  b.sensor(v, "b_s1", SatelliteId{0u}, 1.0);
  b.sensor(u, "b_s2", SatelliteId{0u}, 1.0);
  // A second colour so the tree has a genuine conflict at the root... the
  // root is host-pinned anyway; the yellow branch keeps the instance from
  // degenerating.
  const CruId y = b.compute(root, "y", 2.0, 2.0, 1.0);
  b.sensor(y, "y_s", SatelliteId{1u}, 1.0);
  return b.build();
}

TEST(ColouredSsb, PaperExampleOptimal) {
  const CruTree tree = paper_running_example();
  const Colouring colouring(tree);
  const AssignmentGraph ag(colouring);
  const ColouredSsbResult got = coloured_ssb_solve(ag);
  const ExhaustiveResult want = exhaustive_solve(colouring, SsbObjective::end_to_end());
  EXPECT_NEAR(got.ssb_weight, want.objective, 1e-9);
  EXPECT_NEAR(got.delay.end_to_end(), got.ssb_weight, 1e-9);
}

TEST(ColouredSsb, Fig9StyleInstanceIsSolvedExactly) {
  const CruTree tree = fig9_style_tree();
  const Colouring colouring(tree);
  const AssignmentGraph ag(colouring);
  const ColouredSsbResult got = coloured_ssb_solve(ag);
  const ExhaustiveResult want = exhaustive_solve(colouring, SsbObjective::end_to_end());
  EXPECT_NEAR(got.ssb_weight, want.objective, 1e-9);
}

TEST(ColouredSsb, EagerExpansionReportsCompositeEdges) {
  const CruTree tree = fig9_style_tree();
  const Colouring colouring(tree);
  const AssignmentGraph ag(colouring);
  ColouredSsbOptions o;
  o.eager_expansion = true;
  const ColouredSsbResult got = coloured_ssb_solve(ag, o);
  EXPECT_GT(got.stats.regions_expanded, 0u);
  EXPECT_GT(got.stats.composite_edges, 0u);
  // |E'| is what the paper's O(|E'|) claim counts.
  EXPECT_GT(got.stats.expanded_edge_count, 0u);
}

TEST(ColouredSsb, TinyExpansionCapHandsTheStallToTheParetoDp) {
  const CruTree tree = paper_running_example();
  const Colouring colouring(tree);
  const AssignmentGraph ag(colouring);
  ColouredSsbOptions o;
  o.expansion_cap_per_region = 1;  // nothing is expandable
  const ColouredSsbResult got = coloured_ssb_solve(ag, o);
  EXPECT_TRUE(got.stats.stalled);
  EXPECT_TRUE(got.stats.used_fallback);  // the Pareto DP finished the solve
  const ExhaustiveResult want = exhaustive_solve(colouring, SsbObjective::end_to_end());
  EXPECT_NEAR(got.ssb_weight, want.objective, 1e-9);
  // The kept cut, mapped back through the assignment graph, has the value
  // the search reports.
  EXPECT_NEAR(got.assignment.delay().objective(SsbObjective::end_to_end()), got.ssb_weight,
              1e-9);
}

TEST(ColouredSsb, MultiRegionColourSumsAcrossRegions) {
  // Colour B appears in two disjoint regions (CRU5, CRU6 in the paper
  // example). Force an assignment using both and check the optimizer never
  // reports a weight below what the cross-region sum implies.
  const CruTree tree = paper_running_example();
  const Colouring colouring(tree);
  const AssignmentGraph ag(colouring);
  const ColouredSsbResult got = coloured_ssb_solve(ag);
  // Verify against the delay model: the reported optimum must be achievable.
  EXPECT_NEAR(got.assignment.delay().objective(SsbObjective::end_to_end()), got.ssb_weight,
              1e-9);
}

struct StressCase {
  std::uint64_t seed;
  std::size_t nodes;
  std::size_t satellites;
};

class ColouredSsbStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(ColouredSsbStress, AgreesWithExhaustiveUnderHostileOptions) {
  const StressCase c = GetParam();
  Rng rng(c.seed);
  TreeGenOptions o;
  o.compute_nodes = c.nodes;
  o.satellites = c.satellites;
  o.policy = SensorPolicy::kRoundRobin;  // maximizes multi-region colours
  const CruTree tree = random_tree(rng, o);
  const Colouring colouring(tree);
  const AssignmentGraph ag(colouring);
  const double want = exhaustive_solve(colouring, SsbObjective::end_to_end()).objective;

  for (const std::size_t cap : {std::size_t{1}, std::size_t{4}, std::size_t{65536}}) {
    for (const bool eager : {false, true}) {
      ColouredSsbOptions opt;
      opt.expansion_cap_per_region = cap;
      opt.eager_expansion = eager;
      const ColouredSsbResult got = coloured_ssb_solve(ag, opt);
      EXPECT_NEAR(got.ssb_weight, want, 1e-9)
          << "seed=" << c.seed << " cap=" << cap << " eager=" << eager;
    }
  }
}

std::vector<StressCase> stress_cases() {
  std::vector<StressCase> cases;
  std::uint64_t seed = 111;
  for (const std::size_t n : {4u, 7u, 10u, 13u}) {
    for (const std::size_t sats : {2u, 3u}) {
      cases.push_back({seed++, n, sats});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeded, ColouredSsbStress, ::testing::ValuesIn(stress_cases()));

}  // namespace
}  // namespace treesat
