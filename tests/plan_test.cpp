// Tests for the plan-based solver API: the SolvePlan named constructors,
// the method registry and its "method:key=value" spec parser (including the
// error paths), automatic() method selection, and solve_batch.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/incremental.hpp"
#include "core/registry.hpp"
#include "core/solver.hpp"
#include "io/json.hpp"
#include "workload/generator.hpp"
#include "workload/scenarios.hpp"

namespace treesat {
namespace {

// --- registry ------------------------------------------------------------

TEST(Registry, EnumeratesEveryMethodExactlyOnce) {
  const std::vector<MethodInfo>& registry = method_registry();
  ASSERT_GE(registry.size(), 8u);
  for (const MethodInfo& info : registry) {
    // Each entry is self-consistent and reachable by both lookups.
    EXPECT_STREQ(method_name(info.method), info.name);
    EXPECT_EQ(&method_info(info.method), &info);
    EXPECT_EQ(find_method(info.name), &info);
    // ...and each name is registered once.
    std::size_t hits = 0;
    for (const MethodInfo& other : registry) {
      hits += std::string_view(other.name) == info.name ? 1 : 0;
    }
    EXPECT_EQ(hits, 1u) << info.name;
  }
}

TEST(Registry, MethodNameParseMethodRoundTrip) {
  for (const MethodInfo& info : method_registry()) {
    EXPECT_EQ(parse_method(method_name(info.method)), info.method);
  }
  // Underscores and dashes are interchangeable.
  EXPECT_EQ(parse_method("coloured_ssb"), SolveMethod::kColouredSsb);
  EXPECT_EQ(parse_method("local_search"), SolveMethod::kLocalSearch);
  EXPECT_EQ(find_method("branch_bound"), &method_info(SolveMethod::kBranchBound));
  EXPECT_EQ(find_method("no-such-method"), nullptr);
  EXPECT_THROW(static_cast<void>(parse_method("no-such-method")), InvalidArgument);
}

// --- spec parsing --------------------------------------------------------

TEST(ParsePlan, BareMethodYieldsDefaultOptions) {
  const SolvePlan plan = parse_plan("coloured-ssb");
  EXPECT_EQ(plan.method(), SolveMethod::kColouredSsb);
  EXPECT_EQ(plan.options_as<ColouredSsbOptions>().expansion_cap_per_region,
            ColouredSsbOptions{}.expansion_cap_per_region);
}

TEST(ParsePlan, PerMethodKeysReachTheTypedOptions) {
  const SolvePlan ssb = parse_plan("coloured_ssb:expansion_cap=4096,eager_expansion=true");
  const auto& so = ssb.options_as<ColouredSsbOptions>();
  EXPECT_EQ(so.expansion_cap_per_region, 4096u);
  EXPECT_TRUE(so.eager_expansion);

  const SolvePlan ga = parse_plan(
      "genetic:population=128,generations=40,tournament=5,elites=4,"
      "crossover_prob=0.8,mutation_prob=0.05,seed=77");
  const auto& go = ga.options_as<GeneticOptions>();
  EXPECT_EQ(go.population, 128u);
  EXPECT_EQ(go.generations, 40u);
  EXPECT_EQ(go.tournament, 5u);
  EXPECT_EQ(go.elites, 4u);
  EXPECT_DOUBLE_EQ(go.crossover_prob, 0.8);
  EXPECT_DOUBLE_EQ(go.mutation_prob, 0.05);
  EXPECT_EQ(go.seed, 77u);

  const SolvePlan sa = parse_plan("annealing:steps=500,initial_temperature=0.5,cooling=0.99");
  const auto& ao = sa.options_as<AnnealingOptions>();
  EXPECT_EQ(ao.steps, 500u);
  EXPECT_DOUBLE_EQ(ao.initial_temperature, 0.5);
  EXPECT_DOUBLE_EQ(ao.cooling, 0.99);

  const SolvePlan bb = parse_plan("branch-bound:node_cap=1000,greedy_incumbent=no");
  EXPECT_EQ(bb.options_as<BranchBoundOptions>().node_cap, 1000u);
  EXPECT_FALSE(bb.options_as<BranchBoundOptions>().greedy_incumbent);

  const SolvePlan dp = parse_plan("pareto-dp:max_frontier=99");
  EXPECT_EQ(dp.options_as<ParetoDpOptions>().max_frontier, 99u);
  EXPECT_EQ(parse_plan("exhaustive:cap=12345").options_as<ExhaustiveOptions>().cap, 12345u);
  EXPECT_EQ(parse_plan("local-search:restarts=3,max_moves=10,seed=9")
                .options_as<LocalSearchOptions>()
                .restarts,
            3u);
  EXPECT_EQ(parse_plan("automatic:exhaustive_cutoff=64")
                .options_as<AutomaticOptions>()
                .exhaustive_cutoff,
            64u);
}

TEST(ParsePlan, LambdaKeyAppliesTheObjectiveEverywhere) {
  for (const MethodInfo& info : method_registry()) {
    const SolvePlan plan = parse_plan(std::string(info.name) + ":lambda=0.25");
    EXPECT_DOUBLE_EQ(plan.objective().s_coeff, 0.25) << info.name;
    EXPECT_DOUBLE_EQ(plan.objective().b_coeff, 0.75) << info.name;
  }
}

TEST(ParsePlan, ErrorPaths) {
  // Unknown method.
  EXPECT_THROW(static_cast<void>(parse_plan("dijkstra")), InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_plan("")), InvalidArgument);
  // Unknown key for a known method.
  EXPECT_THROW(static_cast<void>(parse_plan("greedy:population=3")), InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_plan("coloured-ssb:node_cap=1")), InvalidArgument);
  // Malformed pairs.
  EXPECT_THROW(static_cast<void>(parse_plan("genetic:population")), InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_plan("genetic:")), InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_plan("genetic:=64")), InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_plan("genetic:population=64,")), InvalidArgument);
  // Unparseable values.
  EXPECT_THROW(static_cast<void>(parse_plan("genetic:population=lots")), InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_plan("annealing:cooling=fast")), InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_plan("coloured-ssb:eager_expansion=maybe")),
               InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_plan("exhaustive:lambda=2.0")), InvalidArgument);
  // A seed on a deterministic method is rejected, not silently dropped --
  // including automatic, whose resolution only picks deterministic methods.
  EXPECT_THROW(static_cast<void>(parse_plan("exhaustive:seed=1")), InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_plan("greedy:seed=1")), InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_plan("automatic:seed=1")), InvalidArgument);
}

TEST(ParsePlan, SpecRoundTrips) {
  for (const MethodInfo& info : method_registry()) {
    const SolvePlan original =
        SolvePlan(parse_plan(info.name)).with_objective(SsbObjective::from_lambda(0.3));
    const SolvePlan reparsed = parse_plan(plan_spec(original));
    EXPECT_EQ(reparsed.method(), original.method()) << info.name;
    EXPECT_DOUBLE_EQ(reparsed.objective().s_coeff, original.objective().s_coeff);
    EXPECT_DOUBLE_EQ(reparsed.objective().b_coeff, original.objective().b_coeff);
  }
  const SolvePlan tuned = parse_plan("annealing:steps=123,cooling=0.9,seed=42");
  const SolvePlan back = parse_plan(plan_spec(tuned));
  EXPECT_EQ(back.options_as<AnnealingOptions>().steps, 123u);
  EXPECT_DOUBLE_EQ(back.options_as<AnnealingOptions>().cooling, 0.9);
  EXPECT_EQ(back.options_as<AnnealingOptions>().seed, 42u);
}

TEST(PlanSpec, PinsTheCanonicalStringOfEveryMethod) {
  // plan_spec is persisted (the `plan` line of a session snapshot) and
  // compared (session identity), so its bytes are a format: key order,
  // number spelling and which keys are printed at all. Pinned here for
  // every registered method at its defaults, with every per-method option
  // non-default, and with the executor keys set. Each pinned string must
  // also re-parse to itself.
  const std::map<std::string, std::string> defaults = {
      {"coloured-ssb", "coloured-ssb:expansion_cap=65536,eager_expansion=false"},
      {"pareto-dp", "pareto-dp:max_frontier=1048576"},
      {"exhaustive", "exhaustive:cap=4194304"},
      {"branch-bound", "branch-bound:node_cap=67108864,greedy_incumbent=true"},
      {"genetic",
       "genetic:population=64,generations=80,tournament=3,elites=2,crossover_prob=0.9,"
       "mutation_prob=0.02,seed=1"},
      {"local-search", "local-search:restarts=8,max_moves=10000,seed=1"},
      {"greedy", "greedy"},
      {"annealing", "annealing:steps=20000,initial_temperature=0.25,cooling=0.9995,seed=1"},
      {"automatic", "automatic:exhaustive_cutoff=4096"},
  };
  ASSERT_EQ(defaults.size(), method_registry().size());
  for (const MethodInfo& info : method_registry()) {
    ASSERT_EQ(defaults.count(info.name), 1u) << info.name;
    EXPECT_EQ(plan_spec(parse_plan(info.name)), defaults.at(info.name));
  }

  ColouredSsbOptions ssb;
  ssb.expansion_cap_per_region = 4096;
  ssb.eager_expansion = true;
  ParetoDpOptions dp;
  dp.max_frontier = 99;
  ExhaustiveOptions exhaustive;
  exhaustive.cap = 12345;
  BranchBoundOptions bb;
  bb.node_cap = 1000;
  bb.greedy_incumbent = false;
  GeneticOptions ga;
  ga.population = 128;
  ga.generations = 40;
  ga.tournament = 5;
  ga.elites = 4;
  ga.crossover_prob = 0.8;
  ga.mutation_prob = 0.05;
  ga.seed = 77;
  LocalSearchOptions ls;
  ls.restarts = 3;
  ls.max_moves = 10;
  ls.seed = 9;
  GreedyOptions greedy;
  greedy.objective = SsbObjective::from_lambda(0.25);
  AnnealingOptions sa;
  sa.steps = 500;
  sa.initial_temperature = 0.5;
  sa.cooling = 0.99;
  sa.seed = 5;
  AutomaticOptions automatic;
  automatic.exhaustive_cutoff = 64;
  ParetoDpOptions wide;
  wide.max_frontier = 4096;
  ExecutorOptions executor;
  executor.threads = 4;
  executor.deadline_seconds = 0.25;
  executor.fail_fast = false;
  executor.warm_start = true;

  const std::vector<std::pair<SolvePlan, std::string>> tuned = {
      {SolvePlan::coloured_ssb(ssb), "coloured-ssb:expansion_cap=4096,eager_expansion=true"},
      {SolvePlan::pareto_dp(dp), "pareto-dp:max_frontier=99"},
      {SolvePlan::exhaustive(exhaustive), "exhaustive:cap=12345"},
      {SolvePlan::branch_bound(bb), "branch-bound:node_cap=1000,greedy_incumbent=false"},
      {SolvePlan::genetic(ga),
       "genetic:population=128,generations=40,tournament=5,elites=4,crossover_prob=0.8,"
       "mutation_prob=0.05,seed=77"},
      {SolvePlan::local_search(ls), "local-search:restarts=3,max_moves=10,seed=9"},
      {SolvePlan::greedy(greedy), "greedy:s_coeff=0.25,b_coeff=0.75"},
      {SolvePlan::annealing(sa),
       "annealing:steps=500,initial_temperature=0.5,cooling=0.99,seed=5"},
      {SolvePlan::automatic(automatic), "automatic:exhaustive_cutoff=64"},
      {SolvePlan::pareto_dp(wide).with_executor(executor),
       "pareto-dp:threads=4,deadline_ms=250,fail_fast=false,warm_start=true,"
       "max_frontier=4096"},
      {parse_plan("coloured-ssb:threads=auto,lambda=0.5"),
       "coloured-ssb:s_coeff=0.5,b_coeff=0.5,threads=auto,expansion_cap=65536,"
       "eager_expansion=false"},
  };
  for (const auto& [plan, spec] : tuned) {
    EXPECT_EQ(plan_spec(plan), spec);
    EXPECT_EQ(plan_spec(parse_plan(spec)), spec);
  }
}

TEST(ParsePlan, EngineSelectorKeysAreUnknown) {
  // pareto-dp has one fold engine and no engine or kernel selector:
  // arena= and kernel= are unknown-key errors like any other typo.
  for (const char* spec : {"pareto-dp:kernel=scalar", "pareto-dp:kernel=simd",
                           "pareto-dp:arena=false", "pareto-dp:arena=true"}) {
    try {
      static_cast<void>(parse_plan(spec));
      ADD_FAILURE() << spec << " parsed";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key"), std::string::npos) << e.what();
    }
  }
  EXPECT_EQ(plan_spec(SolvePlan::pareto_dp()).find("kernel"), std::string::npos);
  EXPECT_EQ(plan_spec(SolvePlan::pareto_dp()).find("arena"), std::string::npos);
}

// --- plan behaviour ------------------------------------------------------

TEST(SolvePlan, WithSeedTouchesOnlySeededMethods) {
  SolvePlan ga = SolvePlan::genetic();
  ga.with_seed(123);
  EXPECT_EQ(ga.options_as<GeneticOptions>().seed, 123u);
  EXPECT_TRUE(ga.seeded());

  SolvePlan dp = SolvePlan::pareto_dp();
  dp.with_seed(123);  // documented no-op
  EXPECT_FALSE(dp.seeded());
  EXPECT_EQ(dp.options_as<ParetoDpOptions>().max_frontier,
            ParetoDpOptions{}.max_frontier);
}

TEST(SolvePlan, FullOptionSetReachesEverySolver) {
  // The motivating bug of the redesign: per-algorithm knobs must actually
  // influence the solve when passed through the facade.
  const CruTree tree = paper_running_example();
  const Colouring colouring(tree);

  GeneticOptions go;
  go.population = 8;
  go.generations = 3;
  const SolveReport ga = solve(colouring, SolvePlan::genetic(go));
  EXPECT_EQ(ga.stats_as<GeneticStats>()->generations_run, 3u);

  AnnealingOptions ao;
  ao.steps = 50;
  const SolveReport sa = solve(colouring, SolvePlan::annealing(ao));
  EXPECT_EQ(sa.stats_as<AnnealingStats>()->steps_run, 50u);

  LocalSearchOptions lo;
  lo.restarts = 2;
  const SolveReport ls = solve(colouring, SolvePlan::local_search(lo));
  EXPECT_EQ(ls.stats_as<LocalSearchStats>()->restarts_run, 2u);

  // A hostile node cap must propagate as ResourceLimit through the facade.
  BranchBoundOptions bo;
  bo.node_cap = 1;
  bo.greedy_incumbent = false;
  EXPECT_THROW(static_cast<void>(solve(colouring, SolvePlan::branch_bound(bo))),
               ResourceLimit);
}

TEST(SolveReport, SurfacesColouredSsbStatsThroughTheFacade) {
  // A scattered instance stalls the §5.4 search past what expansion can
  // clear, so the Pareto DP finishes it; the hand-off is observed from the
  // report -- previously these stats died inside the facade.
  Rng rng(13131);
  TreeGenOptions o;
  o.compute_nodes = 80;
  o.satellites = 4;
  o.policy = SensorPolicy::kScattered;
  const CruTree tree = random_tree(rng, o);
  const Colouring colouring(tree);

  const SolveReport report = solve(colouring, SolvePlan::coloured_ssb());
  ASSERT_NE(report.stats_as<ColouredSsbStats>(), nullptr);
  EXPECT_TRUE(report.stats_as<ColouredSsbStats>()->used_fallback);
  EXPECT_EQ(report.stats_as<AnnealingStats>(), nullptr);
  EXPECT_EQ(report.method, SolveMethod::kColouredSsb);
  EXPECT_EQ(report.requested, SolveMethod::kColouredSsb);
}

TEST(SolveReport, SurfacesParetoArenaCountersThroughTheFacade) {
  // The arena engine's perf counters must reach the report: arena bytes,
  // peak frontier width, merge count and the prune ratio's inputs, all
  // non-zero on a real multi-colour instance (io/json.cpp prints the same
  // fields into report JSON).
  const CruTree tree = paper_running_example();
  const Colouring colouring(tree);
  const SolveReport report = solve(colouring, SolvePlan::pareto_dp());
  const auto* stats = report.stats_as<ParetoDpStats>();
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->arena_bytes, 0u);
  EXPECT_GT(stats->peak_frontier, 0u);
  EXPECT_GT(stats->minkowski_merges, 0u);
  EXPECT_GT(stats->merge_points_generated, 0u);
  EXPECT_GT(stats->merge_points_kept, 0u);
  EXPECT_GE(stats->merge_points_generated, stats->merge_points_kept);
  EXPECT_GE(stats->prune_ratio(), 0.0);
  EXPECT_LT(stats->prune_ratio(), 1.0);
}

TEST(SolveReport, ZeroMergeSolvesReportZeroRatiosNotNaN) {
  // A single-satellite chain is one region built without a single Minkowski
  // merge: every merge counter stays zero, and the derived ratio must clamp
  // to 0 rather than evaluate 0/0 -- both through the accessor and in the
  // report JSON that dashboards parse (NaN is not even valid JSON).
  Rng rng(77);
  ChainGenOptions o;
  o.compute_nodes = 6;
  o.satellites = 1;
  o.sensor_every = 0;
  const CruTree tree = chain_tree(rng, o);
  const Colouring colouring(tree);
  const SolveReport report = solve(colouring, SolvePlan::pareto_dp());
  const auto* stats = report.stats_as<ParetoDpStats>();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->minkowski_merges, 0u);
  EXPECT_EQ(stats->merge_points_generated, 0u);
  EXPECT_EQ(stats->merge_points_kept, 0u);
  EXPECT_EQ(stats->prune_ratio(), 0.0);
  const std::string json = report_to_json(report);
  EXPECT_NE(json.find("\"prune_ratio\":0}"), std::string::npos) << json;
}

TEST(SolveReport, ResolveStatsReachReportJson) {
  // The warm/cold provenance of a session re-solve must survive into the
  // report JSON (io/json.cpp): path, reuse counters, and -- when the cold
  // path ran -- the human-readable reason. Dashboards watching a serving
  // deployment diagnose cache behavior from exactly these fields.
  const CruTree tree = paper_running_example();

  ResolveSession warm{CruTree(tree)};  // pareto-dp: region frontiers reusable
  warm.resolve(Perturbation::satellite_drift(SatelliteId{std::size_t{0}}, 1.1, 0.9, 1.0));
  ASSERT_EQ(warm.last_stats().path, ResolvePath::kWarm);
  EXPECT_GT(warm.last_stats().regions_reused, 0u);
  const std::string warm_json = report_to_json(warm.current(), warm.last_stats());
  EXPECT_NE(warm_json.find("\"resolve\":{\"path\":\"warm\",\"step\":1"), std::string::npos)
      << warm_json;
  EXPECT_NE(warm_json.find("\"cold_reason\":\"\""), std::string::npos) << warm_json;
  EXPECT_NE(warm_json.find("\"regions_reused\":" +
                           std::to_string(warm.last_stats().regions_reused)),
            std::string::npos)
      << warm_json;

  // A method with no reusable search state cold-solves, and says why.
  ResolveSession cold{CruTree(tree), SolvePlan::greedy()};
  cold.resolve(Perturbation::global_drift(1.2, 1.0, 1.0));
  ASSERT_EQ(cold.last_stats().path, ResolvePath::kCold);
  const std::string cold_json = report_to_json(cold.current(), cold.last_stats());
  EXPECT_NE(cold_json.find("\"path\":\"cold\""), std::string::npos) << cold_json;
  EXPECT_NE(cold_json.find("has no reusable search state"), std::string::npos) << cold_json;

  // The standalone serializer emits the same object.
  EXPECT_NE(warm_json.find(resolve_stats_to_json(warm.last_stats())), std::string::npos);
}

// --- automatic selection -------------------------------------------------

TEST(Automatic, SmallInstancesGoToTheOracle) {
  const CruTree tree = paper_running_example();  // 255 cuts: tiny
  const Colouring colouring(tree);
  const SolvePlan resolved = SolvePlan::automatic().resolve(colouring);
  EXPECT_EQ(resolved.method(), SolveMethod::kExhaustive);

  const SolveReport report = solve(colouring, SolvePlan::automatic());
  EXPECT_EQ(report.requested, SolveMethod::kAutomatic);
  EXPECT_EQ(report.method, SolveMethod::kExhaustive);
  EXPECT_TRUE(report.exact);
  EXPECT_NEAR(report.objective_value, solve(colouring).objective_value, 1e-9);
}

TEST(Automatic, MultiRegionColoursGoToTheDp) {
  // Large + scattered pinning: colours recur in several regions -- the §5.4
  // stall regime whose fallback delegates to the DP anyway.
  Rng rng(2029);
  TreeGenOptions o;
  o.compute_nodes = 120;
  o.satellites = 3;
  o.policy = SensorPolicy::kScattered;
  const CruTree tree = random_tree(rng, o);
  const Colouring colouring(tree);

  bool multi_region = false;
  for (std::size_t c = 0; c < tree.satellite_count(); ++c) {
    multi_region |= colouring.regions_of(SatelliteId{c}).size() > 1;
  }
  ASSERT_TRUE(multi_region) << "generator no longer produces the intended shape";

  const SolvePlan resolved = SolvePlan::automatic().resolve(colouring);
  EXPECT_EQ(resolved.method(), SolveMethod::kParetoDp);
}

TEST(Automatic, SingleRegionColoursGoToColouredSsb) {
  // One deep chain per colour. A chain region contributes one cut per node,
  // so two 70-deep chains give a ~72^2 cut space -- past the 4096 exhaustive
  // cutoff, landing on the paper's fast path.
  CruTreeBuilder b;
  const CruId root = b.root("root", 1.0);
  for (std::size_t c = 0; c < 2; ++c) {
    CruId at = b.compute(root, "top" + std::to_string(c), 1.0, 2.0, 0.5);
    for (std::size_t d = 0; d < 70; ++d) {
      // Appended, not concatenated: GCC 12's -Wrestrict misfires on chained
      // string operator+ under -O2 (GCC bug 105651).
      std::string name = "n";
      name += std::to_string(c);
      name += '_';
      name += std::to_string(d);
      at = b.compute(at, name, 1.0, 2.0, 0.5);
    }
    b.sensor(at, "s" + std::to_string(c), SatelliteId{c}, 1.0);
  }
  const CruTree tree = b.build();
  const Colouring colouring(tree);

  const SolvePlan resolved = SolvePlan::automatic().resolve(colouring);
  EXPECT_EQ(resolved.method(), SolveMethod::kColouredSsb);
  // The objective threads through resolution.
  const SolvePlan skewed =
      SolvePlan(SolvePlan::automatic()).with_objective(SsbObjective::from_lambda(0.2));
  EXPECT_DOUBLE_EQ(skewed.resolve(colouring).objective().s_coeff, 0.2);
}

// --- batch solving -------------------------------------------------------

TEST(SolveBatch, MatchesPerInstanceSolves) {
  std::vector<Scenario> scenarios = standard_scenarios();
  std::vector<CruTree> trees;
  std::vector<Colouring> colourings;
  trees.reserve(scenarios.size());
  colourings.reserve(scenarios.size());
  std::vector<const Colouring*> instances;
  for (const Scenario& sc : scenarios) {
    trees.push_back(sc.workload.lower(sc.platform));
  }
  for (const CruTree& tree : trees) {
    colourings.emplace_back(tree);
  }
  for (const Colouring& colouring : colourings) {
    instances.push_back(&colouring);
  }

  const SolvePlan plan = SolvePlan::pareto_dp();
  const std::vector<SolveReport> batch = solve_batch(instances, plan);
  ASSERT_EQ(batch.size(), instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const SolveReport solo = solve(*instances[i], plan);
    EXPECT_NEAR(batch[i].objective_value, solo.objective_value, 1e-12) << i;
    // Each report references its own instance, not a shared one.
    EXPECT_EQ(&batch[i].assignment.colouring(), instances[i]) << i;
  }
}

TEST(SolveBatch, EmptyAndNullInputs) {
  EXPECT_TRUE(solve_batch({}).empty());
  const std::vector<const Colouring*> instances = {nullptr};
  EXPECT_THROW(static_cast<void>(solve_batch(instances)), InvalidArgument);
}

}  // namespace
}  // namespace treesat
