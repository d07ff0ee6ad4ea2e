// End-to-end integration tests: the full profile -> lower -> colour ->
// optimize -> execute -> export pipeline on the scenario library, plus
// regressions for the solver's degraded-mode paths on large instances.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/coloured_ssb.hpp"
#include "core/pareto_dp.hpp"
#include "core/solver.hpp"
#include "io/json.hpp"
#include "sim/simulator.hpp"
#include "tree/serialize.hpp"
#include "workload/generator.hpp"
#include "workload/scenarios.hpp"

namespace treesat {
namespace {

TEST(Integration, EpilepsyPipelineEndToEnd) {
  const Scenario sc = epilepsy_scenario();
  const CruTree tree = sc.workload.lower(sc.platform);
  const Colouring colouring(tree);

  // Every exact method returns the same optimum...
  double optimum = -1.0;
  for (const SolvePlan& plan : {SolvePlan::coloured_ssb(), SolvePlan::pareto_dp(),
                                SolvePlan::exhaustive(), SolvePlan::branch_bound()}) {
    const SolveReport s = solve(colouring, plan);
    EXPECT_TRUE(s.exact) << s.method_label();
    if (optimum < 0) optimum = s.objective_value;
    EXPECT_NEAR(s.objective_value, optimum, 1e-9) << s.method_label();

    // ...whose predicted delay the simulator reproduces exactly...
    EXPECT_NEAR(simulate(s.assignment).frames[0].latency(), s.objective_value,
                1e-9 * (1.0 + optimum))
        << s.method_label();

    // ...and which exports as JSON naming the method.
    EXPECT_NE(report_to_json(s).find(s.method_label()), std::string::npos);
  }

  // The optimum must strictly beat both naive deployments on this scenario
  // (the workload was designed to make partial offloading win).
  EXPECT_LT(optimum, Assignment::all_on_host(colouring).delay().end_to_end() - 1e-9);
  EXPECT_LT(optimum, Assignment::topmost(colouring).delay().end_to_end() - 1e-9);
}

TEST(Integration, SerializeRoundTripPreservesTheOptimum) {
  // A deployment service writes the tree to disk and a solver process reads
  // it back: the optimum must survive the trip.
  const Scenario sc = snmp_scenario(3);
  const CruTree tree = sc.workload.lower(sc.platform);
  const Colouring colouring(tree);
  const double direct = pareto_dp_solve(colouring).objective;

  const CruTree reloaded = tree_from_text(to_text(tree));
  const Colouring recoloured(reloaded);
  EXPECT_NEAR(pareto_dp_solve(recoloured).objective, direct, 1e-12);
}

TEST(Integration, DelegationPathStaysExactOnLargeScatteredTrees) {
  // Regression for the stall hand-off: a large scattered instance stalls
  // the SSB iteration past what expansion can clear, so the Pareto DP
  // finishes it; the result must equal a direct DP solve.
  Rng rng(13131);
  TreeGenOptions o;
  o.compute_nodes = 80;
  o.satellites = 4;
  o.policy = SensorPolicy::kScattered;
  const CruTree tree = random_tree(rng, o);
  const Colouring colouring(tree);

  const SolveReport ssb = solve(colouring, SolvePlan::coloured_ssb());
  const ParetoDpResult dp = pareto_dp_solve(colouring);
  EXPECT_NEAR(ssb.objective_value, dp.objective, 1e-9);
  // The facade must surface the method-specific stats, not discard them.
  ASSERT_NE(ssb.stats_as<ColouredSsbStats>(), nullptr);
  EXPECT_TRUE(ssb.stats_as<ColouredSsbStats>()->used_fallback);
}

TEST(Integration, SnmpOptimumNeverWorseThanNaiveAcrossScales) {
  for (const std::size_t probes : {1u, 2u, 4u, 8u, 16u}) {
    const Scenario sc = snmp_scenario(probes);
    const CruTree tree = sc.workload.lower(sc.platform);
    const Colouring colouring(tree);
    const AssignmentGraph ag(colouring);
    const double optimum = coloured_ssb_solve(ag).delay.end_to_end();
    EXPECT_LE(optimum,
              Assignment::all_on_host(colouring).delay().end_to_end() + 1e-12);
    EXPECT_LE(optimum, Assignment::topmost(colouring).delay().end_to_end() + 1e-12);
  }
}

TEST(Integration, FasterUplinksNeverHurtTheOptimum) {
  // Monotonicity of the model end to end: improving every link can only
  // reduce the optimal delay.
  Rng rng(777);
  ProfiledGenOptions o;
  o.compute_nodes = 16;
  o.satellites = 3;
  const ProfiledTree workload = random_profiled_tree(rng, o);
  double previous = std::numeric_limits<double>::infinity();
  for (const double bandwidth : {2e4, 1e5, 1e6, 1e7}) {
    const auto sys =
        HostSatelliteSystem::homogeneous(3, 2e8, 5e7, LinkSpec{0.01, bandwidth});
    const CruTree tree = workload.lower(sys);
    const Colouring colouring(tree);
    const double optimum = pareto_dp_solve(colouring).objective;
    EXPECT_LE(optimum, previous + 1e-12) << "bandwidth " << bandwidth;
    previous = optimum;
  }
}

TEST(Integration, FasterSatellitesNeverHurtTheOptimum) {
  Rng rng(778);
  ProfiledGenOptions o;
  o.compute_nodes = 16;
  o.satellites = 3;
  const ProfiledTree workload = random_profiled_tree(rng, o);
  double previous = std::numeric_limits<double>::infinity();
  for (const double sat_speed : {1e6, 1e7, 1e8, 1e9}) {
    const auto sys =
        HostSatelliteSystem::homogeneous(3, 2e8, sat_speed, LinkSpec{0.01, 1e5});
    const CruTree tree = workload.lower(sys);
    const Colouring colouring(tree);
    const double optimum = pareto_dp_solve(colouring).objective;
    EXPECT_LE(optimum, previous + 1e-12) << "sat speed " << sat_speed;
    previous = optimum;
  }
}

}  // namespace
}  // namespace treesat
