// The batch executor's contract (core/executor.hpp):
//   * determinism under parallelism -- the same batch solved with
//     threads=1, 2 and 8 yields byte-identical SolveReport sequences,
//     including the embedded per-method stats variants;
//   * exactly-once -- every instance of batches from 0 to 257 instances is
//     solved once and matches a solo solve at threads 1, 2 and 8 (ci.sh
//     runs this suite under TSan, which reports a slot written twice), and
//     threads_used is clamped to [1, instance count];
//   * per-instance seed derivation -- batch result i of a seeded plan
//     equals a solo solve under derive_instance_seed(plan.seed(), i);
//   * whole-span null validation before any work starts (the regression
//     for the check that used to fire per-instance, after partial work);
//   * fail-fast / fail-slow failure reporting, deadlines, and the
//     BatchReport aggregates.
#include <gtest/gtest.h>

#include <deque>
#include <sstream>

#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/registry.hpp"
#include "workload/generator.hpp"
#include "workload/scenarios.hpp"

namespace treesat {
namespace {

// --- report fingerprinting ------------------------------------------------

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

void put_stats(std::ostream& os, const MethodStats& stats) {
  std::visit(
      Overloaded{
          [&](const std::monostate&) { os << "none"; },
          [&](const ColouredSsbStats& s) {
            os << "ssb:" << s.iterations << ',' << s.edges_eliminated << ','
               << s.regions_expanded << ',' << s.composite_edges << ','
               << s.expanded_edge_count << ',' << s.used_fallback << ',' << s.stalled;
          },
          [&](const ParetoDpStats& s) {
            os << "dp:" << s.max_region_frontier << ',' << s.max_colour_frontier << ','
               << s.candidates_swept;
          },
          [&](const ExhaustiveStats& s) { os << "ex:" << s.assignments_enumerated; },
          [&](const BranchBoundStats& s) {
            os << "bb:" << s.nodes_visited << ',' << s.nodes_pruned;
          },
          [&](const GeneticStats& s) {
            os << "ga:" << s.generations_run << ',' << s.evaluations;
          },
          [&](const LocalSearchStats& s) {
            os << "ls:" << s.moves_applied << ',' << s.restarts_run;
          },
          [&](const AnnealingStats& s) {
            os << "sa:" << s.steps_run << ',' << s.moves_accepted;
          },
      },
      stats);
}

/// Every byte of a report except wall_seconds (the one field that is
/// timing, not result). Doubles print as hexfloat, so equality is bitwise.
std::string fingerprint(const SolveReport& r) {
  std::ostringstream oss;
  oss << std::hexfloat;
  oss << method_name(r.method) << '|' << method_name(r.requested) << '|' << r.exact
      << '|' << r.objective_value << '|' << r.assignment << '|' << r.delay.host_time
      << '|' << r.delay.bottleneck << '|' << r.delay.bottleneck_satellite << '|';
  for (const double t : r.delay.satellite_time) oss << t << ',';
  oss << '|';
  put_stats(oss, r.stats);
  return oss.str();
}

std::vector<std::string> fingerprints(const std::vector<SolveReport>& reports) {
  std::vector<std::string> out;
  out.reserve(reports.size());
  for (const SolveReport& r : reports) out.push_back(fingerprint(r));
  return out;
}

// --- instance factories ---------------------------------------------------

/// Owns the trees/colourings a batch points into (both reference types, so
/// the storage must not relocate: deques).
struct Batch {
  std::deque<CruTree> trees;
  std::deque<Colouring> colourings;
  std::vector<const Colouring*> instances;

  void add(CruTree tree) {
    trees.push_back(std::move(tree));
    colourings.emplace_back(trees.back());
    instances.push_back(&colourings.back());
  }
};

Batch random_batch(std::size_t count, std::uint64_t seed) {
  Batch batch;
  Rng rng(seed);
  const SensorPolicy policies[] = {SensorPolicy::kClustered, SensorPolicy::kScattered,
                                   SensorPolicy::kRoundRobin};
  for (std::size_t i = 0; i < count; ++i) {
    TreeGenOptions o;
    o.compute_nodes = 3 + rng.index(10);
    o.satellites = 1 + rng.index(4);
    o.policy = policies[rng.index(3)];
    batch.add(random_tree(rng, o));
  }
  return batch;
}

/// A chain with three valid cuts -- blows past exhaustive:cap=2.
CruTree chain_tree() {
  CruTreeBuilder b;
  const CruId root = b.root("root", 1.0);
  const CruId a = b.compute(root, "a", 4.0, 6.0, 1.0);
  const CruId c = b.compute(a, "b", 8.0, 3.0, 2.0);
  b.sensor(c, "s", SatelliteId{0u}, 5.0);
  return b.build();
}

/// A single-assignment tree -- solvable even at exhaustive:cap=2.
CruTree tiny_tree() {
  CruTreeBuilder b;
  const CruId root = b.root("root", 5.0);
  b.sensor(root, "s", SatelliteId{0u}, 2.0);
  return b.build();
}

// --- determinism under parallelism ---------------------------------------

TEST(SolveBatch, ByteIdenticalReportsAcrossThreadCounts) {
  Batch batch = random_batch(64, 0xBA7C4);

  GeneticOptions ga;
  ga.population = 16;
  ga.generations = 6;
  AnnealingOptions sa;
  sa.steps = 300;
  const SolvePlan plans[] = {SolvePlan::coloured_ssb(), SolvePlan::automatic(),
                             SolvePlan::genetic(ga), SolvePlan::annealing(sa)};

  for (const SolvePlan& base : plans) {
    std::vector<std::string> reference;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SolvePlan plan = base;
      plan.with_executor({.threads = threads});
      const std::vector<std::string> prints =
          fingerprints(solve_batch(batch.instances, plan));
      ASSERT_EQ(prints.size(), batch.instances.size());
      if (threads == 1) {
        reference = prints;
        continue;
      }
      for (std::size_t i = 0; i < prints.size(); ++i) {
        EXPECT_EQ(prints[i], reference[i])
            << method_name(base.method()) << " instance " << i << " differs at threads="
            << threads;
      }
    }
  }
}

TEST(SolveBatch, SeededBatchMatchesSoloSolvesUnderDerivedSeeds) {
  Batch batch = random_batch(12, 0x5EED);
  GeneticOptions ga;
  ga.population = 16;
  ga.generations = 6;
  ga.seed = 42;
  SolvePlan plan = SolvePlan::genetic(ga);
  plan.with_executor({.threads = 4});

  const std::vector<SolveReport> reports = solve_batch(batch.instances, plan);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    SolvePlan solo = SolvePlan::genetic(ga);
    solo.with_seed(derive_instance_seed(42, i));
    EXPECT_EQ(fingerprint(reports[i]), fingerprint(solve(*batch.instances[i], solo)))
        << i;
  }
  // Adjacent instances really do get decorrelated seeds.
  EXPECT_NE(derive_instance_seed(42, 0), derive_instance_seed(42, 1));
  EXPECT_NE(derive_instance_seed(42, 0), derive_instance_seed(43, 0));
}

TEST(SolveBatch, DerivedSeedsArePinned) {
  // splitmix64 of seed + golden-ratio stride * index: the values a seeded
  // batch has always used, so sharing the finalizer cannot move them.
  EXPECT_EQ(derive_instance_seed(42, 0), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(derive_instance_seed(42, 1), 0x28efe333b266f103ULL);
  EXPECT_EQ(derive_instance_seed(0, 0), 0xe220a8397b1dcdafULL);
}

TEST(SolveBatch, EveryInstanceSolvesExactlyOnceAtEveryThreadCount) {
  for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                                  std::size_t{64}, std::size_t{257}}) {
    Batch batch = random_batch(count, 0xE0 + count);
    std::vector<std::string> solo;
    for (const Colouring* instance : batch.instances) {
      solo.push_back(fingerprint(solve(*instance)));
    }
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SolvePlan plan;
      plan.with_executor({.threads = threads});
      const BatchReport report = solve_batch_report(batch.instances, plan);
      ASSERT_EQ(report.results.size(), count);
      EXPECT_TRUE(report.complete()) << "count=" << count << " threads=" << threads;
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_TRUE(report.results[i].has_value())
            << "instance " << i << " at count=" << count << " threads=" << threads;
        EXPECT_EQ(fingerprint(*report.results[i]), solo[i])
            << "instance " << i << " at count=" << count << " threads=" << threads;
      }
    }
  }
}

// --- input validation (regression: null must fail before any work) --------

TEST(SolveBatch, NullInstancesRejectedUpFrontAtEveryThreadCount) {
  Batch batch = random_batch(3, 7);
  std::vector<const Colouring*> with_null = batch.instances;
  with_null.push_back(nullptr);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SolvePlan plan;
    plan.with_executor({.threads = threads});
    try {
      (void)solve_batch_report(with_null, plan);
      FAIL() << "null instance accepted at threads=" << threads;
    } catch (const InvalidArgument& e) {
      // The whole span is validated before any solve starts, so the error
      // names the bad index no matter where it sits.
      EXPECT_NE(std::string(e.what()).find("instance 3 is null"), std::string::npos)
          << e.what();
    }
  }
  // The solve_batch facade keeps its historical contract.
  EXPECT_THROW(static_cast<void>(solve_batch(with_null)), InvalidArgument);
}

// --- failure handling -----------------------------------------------------

TEST(SolveBatch, FailFastStopsClaimingAfterTheFirstFailure) {
  Batch batch;
  batch.add(tiny_tree());
  batch.add(chain_tree());  // 3 assignments: exceeds cap=2
  batch.add(tiny_tree());

  ExhaustiveOptions o;
  o.cap = 2;
  const SolvePlan plan = SolvePlan::exhaustive(o);  // threads=1, fail_fast

  const BatchReport report = solve_batch_report(batch.instances, plan);
  EXPECT_FALSE(report.complete());
  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_TRUE(report.results[0].has_value());
  EXPECT_FALSE(report.results[1].has_value());
  // Sequential fail-fast: instance 2 was never started.
  EXPECT_FALSE(report.results[2].has_value());
  ASSERT_EQ(report.failures.size(), 2u);
  EXPECT_EQ(report.failures[0].index, 1u);
  EXPECT_NE(report.failures[0].error, nullptr);
  EXPECT_EQ(report.failures[1].index, 2u);
  EXPECT_EQ(report.failures[1].error, nullptr);
  EXPECT_NE(report.failures[1].message.find("aborted"), std::string::npos);

  // take_reports / solve_batch rethrow the instance's own exception.
  EXPECT_THROW(static_cast<void>(solve_batch(batch.instances, plan)), ResourceLimit);
}

TEST(SolveBatch, FailSlowFinishesTheRestAndReportsEveryFailure) {
  Batch batch;
  batch.add(tiny_tree());
  batch.add(chain_tree());
  batch.add(tiny_tree());
  batch.add(chain_tree());

  ExhaustiveOptions o;
  o.cap = 2;
  SolvePlan plan = SolvePlan::exhaustive(o);
  plan.with_executor({.threads = 2, .fail_fast = false});

  const BatchReport report = solve_batch_report(batch.instances, plan);
  EXPECT_EQ(report.solved(), 2u);
  ASSERT_EQ(report.failures.size(), 2u);
  EXPECT_EQ(report.failures[0].index, 1u);
  EXPECT_EQ(report.failures[1].index, 3u);
  for (const BatchFailure& failure : report.failures) {
    ASSERT_NE(failure.error, nullptr);
    EXPECT_FALSE(failure.message.empty());
  }
  EXPECT_TRUE(report.results[0].has_value());
  EXPECT_TRUE(report.results[2].has_value());
  EXPECT_EQ(report.count_of(SolveMethod::kExhaustive), 2u);
}

TEST(SolveBatch, DeadlineFailsUnstartedInstances) {
  Batch batch = random_batch(8, 99);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SolvePlan plan;  // coloured-ssb defaults
    plan.with_executor({.threads = threads, .deadline_seconds = 1e-12});

    const BatchReport report = solve_batch_report(batch.instances, plan);
    EXPECT_FALSE(report.complete());
    EXPECT_EQ(report.solved(), 0u) << "threads=" << threads;
    for (const BatchFailure& failure : report.failures) {
      EXPECT_EQ(failure.error, nullptr);
      EXPECT_NE(failure.message.find("deadline"), std::string::npos)
          << "threads=" << threads << ": " << failure.message;
    }
    // Without a per-instance exception the rethrow is a ResourceLimit.
    EXPECT_THROW(report.rethrow_if_failed(), ResourceLimit);
    EXPECT_THROW(static_cast<void>(solve_batch(batch.instances, plan)), ResourceLimit);
    // Nothing solved: there is no straggler, and the report says so instead
    // of pointing at instance 0 (the bug this optional replaced).
    EXPECT_FALSE(report.slowest_index.has_value());
    EXPECT_EQ(report.slowest_seconds, 0.0);
  }
}

// --- aggregates and options ----------------------------------------------

TEST(SolveBatch, BatchReportAggregatesTheRun) {
  std::vector<Scenario> scenarios = standard_scenarios();
  Batch batch;
  for (const Scenario& sc : scenarios) batch.add(sc.workload.lower(sc.platform));

  SolvePlan plan = SolvePlan::automatic();
  plan.with_executor({.threads = 2});
  const BatchReport report = solve_batch_report(batch.instances, plan);
  ASSERT_TRUE(report.complete());
  EXPECT_EQ(report.solved(), batch.instances.size());
  EXPECT_EQ(report.threads_used, 2u);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.total_solve_seconds, 0.0);
  EXPECT_GE(report.wall_seconds, report.slowest_seconds);
  ASSERT_TRUE(report.slowest_index.has_value());
  EXPECT_LT(*report.slowest_index, batch.instances.size());

  std::size_t counted = 0;
  for (std::size_t m = 0; m < kSolveMethodCount; ++m) counted += report.method_counts[m];
  EXPECT_EQ(counted, batch.instances.size());
  // automatic resolved per instance: nothing is recorded as kAutomatic.
  EXPECT_EQ(report.count_of(SolveMethod::kAutomatic), 0u);
  for (const std::optional<SolveReport>& r : report.results) {
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->requested, SolveMethod::kAutomatic);
  }

  // take_reports empties the report and hands out the plain vector.
  BatchReport again = solve_batch_report(batch.instances, plan);
  const std::vector<SolveReport> reports = again.take_reports();
  EXPECT_EQ(reports.size(), batch.instances.size());
  EXPECT_TRUE(again.results.empty());
}

TEST(SolveBatch, ThreadsUsedIsClampedToTheInstanceCount) {
  Batch batch = random_batch(4, 11);
  SolvePlan plan;
  plan.with_executor({.threads = 0});  // one worker per hardware thread
  BatchReport report = solve_batch_report(batch.instances, plan);
  EXPECT_TRUE(report.complete());
  EXPECT_GE(report.threads_used, 1u);
  EXPECT_LE(report.threads_used, batch.instances.size());

  // Never more workers than instances...
  Batch three = random_batch(3, 12);
  plan.with_executor({.threads = 8});
  report = solve_batch_report(three.instances, plan);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.threads_used, 3u);

  // ...but always one, even for an empty batch.
  report = solve_batch_report({}, plan);
  EXPECT_TRUE(report.complete());
  EXPECT_TRUE(report.results.empty());
  EXPECT_EQ(report.threads_used, 1u);
  EXPECT_TRUE(solve_batch({}).empty());
}

TEST(SolveBatch, ExecutorOptionsTravelThroughSpecsAndResolution) {
  const SolvePlan plan = parse_plan("pareto-dp:threads=4,deadline_ms=250,fail_fast=false");
  EXPECT_EQ(plan.executor().threads, 4u);
  EXPECT_DOUBLE_EQ(plan.executor().deadline_seconds, 0.25);
  EXPECT_FALSE(plan.executor().fail_fast);

  // plan_spec round-trips the executor keys...
  const SolvePlan back = parse_plan(plan_spec(plan));
  EXPECT_EQ(back.executor().threads, 4u);
  EXPECT_DOUBLE_EQ(back.executor().deadline_seconds, 0.25);
  EXPECT_FALSE(back.executor().fail_fast);

  // ...including the auto spelling.
  const SolvePlan auto_plan = parse_plan("coloured-ssb:threads=auto");
  EXPECT_EQ(auto_plan.executor().threads, 0u);
  EXPECT_EQ(parse_plan(plan_spec(auto_plan)).executor().threads, 0u);

  // automatic() resolution keeps the knobs on the resolved plan.
  const CruTree tree = paper_running_example();
  const Colouring colouring(tree);
  SolvePlan automatic = SolvePlan::automatic();
  automatic.with_executor({.threads = 3});
  EXPECT_EQ(automatic.resolve(colouring).executor().threads, 3u);

  // Invalid knobs are rejected at the typed surface too.
  EXPECT_THROW(static_cast<void>(SolvePlan{}.with_executor({.deadline_seconds = -1.0})),
               InvalidArgument);
}

}  // namespace
}  // namespace treesat
