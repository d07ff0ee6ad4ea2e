// The central correctness property of the reproduction: on seeded random
// CRU trees, three exact solvers must agree --
//   * the paper's adapted coloured SSB search (assignment-graph path search),
//   * exhaustive enumeration of all monotone cuts (no graph machinery),
//   * the Pareto-frontier DP (no graph machinery, no enumeration).
// Exhaustive enumeration is the independent oracle for every case. Where
// the SSB iteration finishes on its own, it shares no nontrivial code with
// the oracle, so agreement pins down the assignment-graph construction, the
// σ/β labelling, the colour handling, the expansion step and the delay
// model simultaneously. A stalled SSB case that expansion cannot clear
// takes its answer from the Pareto DP (stats.used_fallback); there the SSB
// check covers the hand-off and the cut -> path -> cut round trip through
// the assignment graph, not an independent search.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/coloured_ssb.hpp"
#include "core/exhaustive.hpp"
#include "core/pareto_dp.hpp"
#include "workload/generator.hpp"

namespace treesat {
namespace {

struct CrossCase {
  std::uint64_t seed;
  std::size_t compute_nodes;
  std::size_t satellites;
  SensorPolicy policy;
  double lambda;  // objective weighting; 0.5 == end-to-end delay shape
};

class SolverCross : public ::testing::TestWithParam<CrossCase> {};

TEST_P(SolverCross, ThreeSolversAgree) {
  const CrossCase c = GetParam();
  Rng rng(c.seed);
  TreeGenOptions o;
  o.compute_nodes = c.compute_nodes;
  o.satellites = c.satellites;
  o.policy = c.policy;
  const CruTree tree = random_tree(rng, o);
  const Colouring colouring(tree);
  const SsbObjective obj = SsbObjective::from_lambda(c.lambda);

  const ExhaustiveResult truth = exhaustive_solve(colouring, obj);

  const AssignmentGraph ag(colouring);
  ColouredSsbOptions sopt;
  sopt.objective = obj;
  const ColouredSsbResult ssb = coloured_ssb_solve(ag, sopt);
  EXPECT_NEAR(ssb.ssb_weight, truth.objective, 1e-9)
      << "coloured SSB vs exhaustive, seed=" << c.seed << " n=" << c.compute_nodes
      << " sats=" << c.satellites;

  ParetoDpOptions popt;
  popt.objective = obj;
  const ParetoDpResult dp = pareto_dp_solve(colouring, popt);
  EXPECT_NEAR(dp.objective, truth.objective, 1e-9)
      << "pareto DP vs exhaustive, seed=" << c.seed;

  // The returned assignments must actually achieve the reported value.
  EXPECT_NEAR(ssb.assignment.delay().objective(obj), ssb.ssb_weight, 1e-9);
  EXPECT_NEAR(dp.assignment.delay().objective(obj), dp.objective, 1e-9);
}

TEST_P(SolverCross, EagerExpansionAgreesWithLazy) {
  const CrossCase c = GetParam();
  Rng rng(c.seed ^ 0x5eed);
  TreeGenOptions o;
  o.compute_nodes = c.compute_nodes;
  o.satellites = c.satellites;
  o.policy = c.policy;
  const CruTree tree = random_tree(rng, o);
  const Colouring colouring(tree);
  const AssignmentGraph ag(colouring);

  ColouredSsbOptions lazy;
  lazy.objective = SsbObjective::from_lambda(c.lambda);
  ColouredSsbOptions eager = lazy;
  eager.eager_expansion = true;

  const ColouredSsbResult a = coloured_ssb_solve(ag, lazy);
  const ColouredSsbResult b = coloured_ssb_solve(ag, eager);
  EXPECT_NEAR(a.ssb_weight, b.ssb_weight, 1e-9) << "seed=" << c.seed;
}

std::vector<CrossCase> cross_cases() {
  std::vector<CrossCase> cases;
  std::uint64_t seed = 1;
  for (const SensorPolicy policy :
       {SensorPolicy::kScattered, SensorPolicy::kClustered, SensorPolicy::kRoundRobin}) {
    for (const std::size_t n : {2u, 4u, 8u, 12u}) {
      for (const std::size_t sats : {1u, 2u, 4u}) {
        for (const double lambda : {0.5, 0.2, 0.8}) {
          cases.push_back({seed++, n, sats, policy, lambda});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeded, SolverCross, ::testing::ValuesIn(cross_cases()));

// Degenerate shapes deserve named tests rather than random draws.

TEST(SolverCrossEdge, SingleComputeSingleSensor) {
  CruTreeBuilder b;
  const CruId root = b.root("root", 5.0);
  b.sensor(root, "s", SatelliteId{0u}, 2.0);
  const CruTree tree = b.build();
  const Colouring colouring(tree);
  // Only one assignment exists: the sensor ships raw data to the host.
  const ExhaustiveResult truth = exhaustive_solve(colouring, SsbObjective::end_to_end());
  EXPECT_EQ(truth.assignments_enumerated, 1u);
  EXPECT_DOUBLE_EQ(truth.delay.host_time, 5.0);
  EXPECT_DOUBLE_EQ(truth.delay.bottleneck, 2.0);

  const AssignmentGraph ag(colouring);
  const ColouredSsbResult ssb = coloured_ssb_solve(ag);
  EXPECT_DOUBLE_EQ(ssb.ssb_weight, 7.0);
}

TEST(SolverCrossEdge, ChainTree) {
  // root -> a -> b -> sensor: four cut positions... but only three, since the
  // root stays on the host: cut above a, above b, or above the sensor.
  CruTreeBuilder builder;
  const CruId root = builder.root("root", 1.0);
  const CruId a = builder.compute(root, "a", 4.0, 6.0, 1.0);
  const CruId b = builder.compute(a, "b", 8.0, 3.0, 2.0);
  builder.sensor(b, "s", SatelliteId{0u}, 5.0);
  const CruTree tree = builder.build();
  const Colouring colouring(tree);
  EXPECT_EQ(count_assignments(colouring, 100), 3u);

  // Delays: cut@a: S=1, B=6+3+1=10 -> 11; cut@b: S=1+4, B=3+2 -> 10;
  // cut@sensor: S=1+4+8, B=5 -> 18. Optimum: cut at b, delay 10.
  const ColouredSsbResult ssb = coloured_ssb_solve(AssignmentGraph(colouring));
  EXPECT_DOUBLE_EQ(ssb.ssb_weight, 10.0);
  ASSERT_EQ(ssb.assignment.cut_nodes().size(), 1u);
  EXPECT_EQ(ssb.assignment.cut_nodes()[0], b);
}

TEST(SolverCrossEdge, AllConflictTree) {
  // Every internal node sees two satellites: only the all-on-host assignment
  // exists... except cutting at the sensors themselves, which *is* the
  // all-on-host assignment.
  CruTreeBuilder b;
  const CruId root = b.root("root", 3.0);
  b.sensor(root, "s0", SatelliteId{0u}, 1.0);
  b.sensor(root, "s1", SatelliteId{1u}, 2.0);
  const CruTree tree = b.build();
  const Colouring colouring(tree);
  EXPECT_EQ(count_assignments(colouring, 100), 1u);
  const ColouredSsbResult ssb = coloured_ssb_solve(AssignmentGraph(colouring));
  // S = 3, B = max(1, 2) = 2.
  EXPECT_DOUBLE_EQ(ssb.ssb_weight, 5.0);
  EXPECT_DOUBLE_EQ(ssb.delay.bottleneck, 2.0);
}

TEST(SolverCrossEdge, ZeroCommCosts) {
  Rng rng(77);
  TreeGenOptions o;
  o.compute_nodes = 8;
  o.satellites = 2;
  o.min_cost = 0.0;
  o.max_cost = 0.0;  // all costs zero: every assignment has delay 0
  const CruTree tree = random_tree(rng, o);
  const Colouring colouring(tree);
  const ColouredSsbResult ssb = coloured_ssb_solve(AssignmentGraph(colouring));
  EXPECT_DOUBLE_EQ(ssb.ssb_weight, 0.0);
}

}  // namespace
}  // namespace treesat
