// Reproducibility guarantees: identical seeds and inputs must yield
// identical outputs across the whole stack -- the property EXPERIMENTS.md
// relies on when it archives single-run numbers.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "core/coloured_ssb.hpp"
#include "core/solver.hpp"
#include "heuristics/annealing.hpp"
#include "heuristics/genetic.hpp"
#include "heuristics/local_search.hpp"
#include "sim/simulator.hpp"
#include "tree/serialize.hpp"
#include "workload/generator.hpp"
#include "workload/scenarios.hpp"

namespace treesat {
namespace {

std::string fingerprint(const Assignment& a) {
  std::ostringstream oss;
  oss << a;
  return oss.str();
}

TEST(Determinism, GeneratorsReproducePerSeed) {
  for (const std::uint64_t seed : {1ull, 42ull, 31415ull}) {
    Rng r1(seed), r2(seed);
    TreeGenOptions o;
    o.compute_nodes = 20;
    o.satellites = 3;
    const CruTree a = random_tree(r1, o);
    const CruTree b = random_tree(r2, o);
    EXPECT_EQ(to_text(a), to_text(b));

    Rng d1(seed), d2(seed);
    DwgGenOptions go;
    go.vertices = 12;
    go.edges = 30;
    const Dwg ga = random_dwg(d1, go);
    const Dwg gb = random_dwg(d2, go);
    ASSERT_EQ(ga.edge_count(), gb.edge_count());
    for (std::size_t e = 0; e < ga.edge_count(); ++e) {
      EXPECT_EQ(ga.edge(EdgeId{e}).sigma, gb.edge(EdgeId{e}).sigma);
      EXPECT_EQ(ga.edge(EdgeId{e}).beta, gb.edge(EdgeId{e}).beta);
    }
  }
}

TEST(Determinism, ExactSolversAreInputDeterministic) {
  Rng rng(2718);
  TreeGenOptions o;
  o.compute_nodes = 14;
  o.satellites = 3;
  const CruTree tree = random_tree(rng, o);
  const Colouring colouring(tree);
  const AssignmentGraph ag(colouring);
  const ColouredSsbResult first = coloured_ssb_solve(ag);
  for (int run = 0; run < 3; ++run) {
    const ColouredSsbResult again = coloured_ssb_solve(ag);
    EXPECT_EQ(fingerprint(first.assignment), fingerprint(again.assignment));
    EXPECT_EQ(first.stats.iterations, again.stats.iterations);
    EXPECT_EQ(first.stats.used_fallback, again.stats.used_fallback);
  }
}

TEST(Determinism, HeuristicsReproducePerSeed) {
  const CruTree tree = paper_running_example();
  const Colouring colouring(tree);

  GeneticOptions g;
  g.seed = 99;
  g.generations = 12;
  EXPECT_EQ(fingerprint(genetic_solve(colouring, g).assignment),
            fingerprint(genetic_solve(colouring, g).assignment));

  LocalSearchOptions l;
  l.seed = 99;
  EXPECT_EQ(fingerprint(local_search_solve(colouring, l).assignment),
            fingerprint(local_search_solve(colouring, l).assignment));

  AnnealingOptions a;
  a.seed = 99;
  a.steps = 2000;
  EXPECT_EQ(fingerprint(annealing_solve(colouring, a).assignment),
            fingerprint(annealing_solve(colouring, a).assignment));
}

TEST(Determinism, SimulatorIsBitwiseRepeatable) {
  const Scenario sc = epilepsy_scenario();
  const CruTree tree = sc.workload.lower(sc.platform);
  const Colouring colouring(tree);
  const Assignment a = Assignment::topmost(colouring);
  SimOptions o;
  o.frames = 16;
  o.frame_interval = 0.05;
  const SimResult r1 = simulate(a, o);
  const SimResult r2 = simulate(a, o);
  ASSERT_EQ(r1.frames.size(), r2.frames.size());
  for (std::size_t f = 0; f < r1.frames.size(); ++f) {
    EXPECT_EQ(r1.frames[f].completion, r2.frames[f].completion);
  }
  EXPECT_EQ(r1.events_processed, r2.events_processed);
}

TEST(Determinism, SolveFacadeStableAcrossRepeats) {
  const CruTree tree = paper_running_example();
  const Colouring colouring(tree);
  for (const SolvePlan& base :
       {SolvePlan::coloured_ssb(), SolvePlan::pareto_dp(), SolvePlan::branch_bound(),
        SolvePlan::genetic(), SolvePlan::annealing(), SolvePlan::automatic()}) {
    const SolvePlan plan = SolvePlan(base).with_seed(5);
    const SolveReport s1 = solve(colouring, plan);
    const SolveReport s2 = solve(colouring, plan);
    EXPECT_EQ(fingerprint(s1.assignment), fingerprint(s2.assignment)) << s1.method_label();
    EXPECT_EQ(s1.objective_value, s2.objective_value) << s1.method_label();
  }
}

TEST(Determinism, FacadeThreadsSeedsIntoEveryHeuristic) {
  // Identical seeds through the facade must give identical results for all
  // four heuristics, whether the seed arrives inside the per-method options
  // struct or via with_seed(). (Greedy is deterministic by construction;
  // asserting it too keeps the whole §6 family under the same contract.)
  const CruTree tree = paper_running_example();
  const Colouring colouring(tree);

  GeneticOptions g;
  g.seed = 99;
  g.generations = 12;
  LocalSearchOptions l;
  l.seed = 99;
  AnnealingOptions a;
  a.seed = 99;
  a.steps = 2000;
  const SolvePlan plans[] = {SolvePlan::genetic(g), SolvePlan::local_search(l),
                             SolvePlan::annealing(a), SolvePlan::greedy()};
  for (const SolvePlan& plan : plans) {
    const SolveReport r1 = solve(colouring, plan);
    const SolveReport r2 = solve(colouring, plan);
    EXPECT_EQ(fingerprint(r1.assignment), fingerprint(r2.assignment))
        << method_name(plan.method());

    // with_seed(99) on a default plan must land on the same options path.
    SolvePlan reseeded = plan.method() == SolveMethod::kGenetic
                             ? SolvePlan::genetic(GeneticOptions{.generations = 12})
                             : SolvePlan(plan);
    reseeded.with_seed(99);
    if (plan.seeded()) {
      const SolveReport r3 = solve(colouring, reseeded);
      EXPECT_EQ(fingerprint(r1.assignment), fingerprint(r3.assignment))
          << method_name(plan.method());
    }
  }
}

}  // namespace
}  // namespace treesat
