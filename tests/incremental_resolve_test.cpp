// The incremental re-solve engine's test wall (core/incremental.hpp).
//
// The load-bearing property is byte-identity: a ResolveSession's warm
// re-solve must return exactly what a cold facade solve of the same plan
// returns on the perturbed instance -- same cut node ids, same objective
// bits, same delay breakdown -- over long random perturbation streams
// (drift, satellite loss, probe insertion). Everything else here pins the
// perturbation semantics, the warm-start incumbents of the coloured SSB /
// branch-and-bound engines, the cold fallback reporting, and the
// warm_start= spec key.
#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/incremental.hpp"
#include "core/registry.hpp"
#include "core/solver.hpp"
#include "workload/drift.hpp"
#include "workload/generator.hpp"
#include "workload/scenarios.hpp"

namespace treesat {
namespace {

std::string names(const CruTree& tree, const std::vector<CruId>& cut) {
  std::ostringstream oss;
  for (const CruId v : cut) oss << tree.node(v).name << ' ';
  return oss.str();
}

// The acceptance property: >= 100 random perturbations, warm vs cold,
// byte-identical optima.
TEST(IncrementalResolve, WarmByteIdenticalToColdOverRandomPerturbations) {
  Rng rng(0x1C12E5);
  std::size_t perturbations = 0;
  std::size_t warm_steps = 0;
  std::size_t reused_total = 0;

  for (int base_iter = 0; base_iter < 12; ++base_iter) {
    TreeGenOptions gen;
    gen.compute_nodes = 8 + rng.index(10);
    gen.satellites = 2 + rng.index(3);
    gen.policy = base_iter % 2 == 0 ? SensorPolicy::kClustered : SensorPolicy::kScattered;
    const CruTree base = random_tree(rng, gen);

    DriftOptions drift;
    drift.steps = 10;
    const std::vector<Perturbation> stream = drift_stream(rng, base, drift);

    ResolveSession session(base, SolvePlan::pareto_dp());
    CruTree shadow = base;  // independently perturbed copy for the cold solves
    for (std::size_t step = 0; step < stream.size(); ++step) {
      const SolveReport& warm = session.resolve(stream[step]);
      shadow = apply_perturbation(shadow, stream[step]);
      const Colouring cold_colouring(shadow);
      const SolveReport cold = solve(cold_colouring, SolvePlan::pareto_dp());
      ++perturbations;

      std::ostringstream ctx;
      ctx << "base=" << base_iter << " step=" << step << " ("
          << stream[step].kind_name() << ") warm cut: "
          << names(session.tree(), warm.assignment.cut_nodes())
          << "| cold cut: " << names(shadow, cold.assignment.cut_nodes());

      ASSERT_EQ(warm.assignment.cut_nodes(), cold.assignment.cut_nodes()) << ctx.str();
      ASSERT_EQ(warm.objective_value, cold.objective_value) << ctx.str();
      ASSERT_EQ(warm.delay.host_time, cold.delay.host_time) << ctx.str();
      ASSERT_EQ(warm.delay.bottleneck, cold.delay.bottleneck) << ctx.str();
      ASSERT_TRUE(warm.exact) << ctx.str();

      const ResolveStats& stats = session.last_stats();
      EXPECT_EQ(stats.step, step + 1) << ctx.str();
      EXPECT_EQ(stats.regions_reused + stats.regions_recomputed, stats.regions_total)
          << ctx.str();
      if (stats.path == ResolvePath::kWarm) {
        ++warm_steps;
        reused_total += stats.regions_reused;
        EXPECT_TRUE(stats.cold_reason.empty()) << ctx.str();
      } else {
        EXPECT_FALSE(stats.cold_reason.empty()) << ctx.str();
      }
    }
  }

  EXPECT_GE(perturbations, 100u);
  // The streams are dominated by per-satellite drift, so most steps must
  // actually have reused cached state -- otherwise "warm" is vacuous.
  EXPECT_GT(warm_steps, perturbations / 2);
  EXPECT_GT(reused_total, 0u);
}

TEST(IncrementalResolve, SatelliteDriftReusesUntouchedRegions) {
  Rng rng(7);
  TreeGenOptions gen;
  gen.compute_nodes = 14;
  gen.satellites = 4;
  gen.policy = SensorPolicy::kClustered;
  const CruTree base = random_tree(rng, gen);

  ResolveSession session(base, SolvePlan::pareto_dp());
  const std::size_t regions = session.last_stats().regions_total;
  ASSERT_GT(regions, 1u);

  session.resolve(Perturbation::satellite_drift(SatelliteId{0u}, 1.1, 0.9, 1.05));
  const ResolveStats& stats = session.last_stats();
  EXPECT_EQ(stats.path, ResolvePath::kWarm);
  EXPECT_GT(stats.regions_reused, 0u);
  // Only colour 0's regions were touched; every other colour's frontier
  // must have come from the cache.
  std::size_t colour0_regions = 0;
  for (const CruId r : session.colouring().region_roots()) {
    if (session.colouring().colour(r) == SatelliteId{0u}) ++colour0_regions;
  }
  EXPECT_GE(stats.regions_reused, stats.regions_total - colour0_regions);
}

TEST(IncrementalResolve, CachedBytesCoverContentPlusPerEntryOverhead) {
  // Regression for the size()-based under-accounting: cached_bytes() must
  // be at least the content bytes visible through export_state() (key
  // words, point values, region cut offsets and positions, colour region
  // indices) plus a hash-node floor per entry. The old gauge summed
  // .size() and charged nothing per map node, so byte-budget eviction in
  // the serving tier fired late.
  Rng rng(21);
  TreeGenOptions gen;
  gen.compute_nodes = 14;
  gen.satellites = 4;
  const CruTree base = random_tree(rng, gen);
  ResolveSession session(base, SolvePlan::pareto_dp());
  session.resolve(Perturbation::satellite_drift(SatelliteId{0u}, 1.1, 0.9, 1.05));

  const SessionState state = session.export_state();
  ASSERT_FALSE(state.colour_cache.empty());
  ASSERT_FALSE(state.region_cache.empty());
  std::size_t content = 0;
  std::size_t entries = 0;
  for (const auto* cache : {&state.colour_cache, &state.region_cache}) {
    for (const SessionState::CacheEntry& entry : *cache) {
      const FrontierEntry& f = entry.frontier;
      ++entries;
      content += entry.key_words.size() * sizeof(std::uint64_t);
      content += (f.load.size() + f.host.size()) * sizeof(double);
      content += (f.cut_offsets.size() + f.cut_positions.size() + f.region_index.size()) *
                 sizeof(std::uint32_t);
    }
  }
  // The entry form: region entries carry their cuts, colour entries only
  // their per-point region indices.
  for (const SessionState::CacheEntry& entry : state.region_cache) {
    EXPECT_EQ(entry.frontier.cut_offsets.size(), entry.frontier.size() + 1);
    EXPECT_TRUE(entry.frontier.region_index.empty());
  }
  for (const SessionState::CacheEntry& entry : state.colour_cache) {
    EXPECT_TRUE(entry.frontier.cut_offsets.empty() && entry.frontier.cut_positions.empty());
    EXPECT_GT(entry.frontier.region_index.size(), 0u);
    EXPECT_EQ(entry.frontier.region_index.size() % entry.frontier.size(), 0u);
  }
  ASSERT_GT(content, 0u);
  // The measured lower bound: exact content plus a conservative per-entry
  // node floor (two chain/hash pointers plus the six inline vector headers
  // the stored pair must at least hold: the key words and the entry's five
  // arrays). cached_bytes charges the full pair and capacity slack on top,
  // hence GE.
  const std::size_t floor =
      content + entries * (2 * sizeof(void*) + 6 * sizeof(std::vector<double>));
  EXPECT_GE(session.cached_bytes(), floor);
  EXPECT_GT(session.cached_bytes(), content);
  // Import must reproduce the gauge bit for bit -- capacity-true
  // accounting only works because every stored vector has exact capacity.
  EXPECT_EQ(ResolveSession::import_state(state).cached_bytes(),
            session.cached_bytes());
}

TEST(IncrementalResolve, InitialSolveReportsTheColdSolvesCounters) {
  // A session's initial solve runs the cold solve's fold engine with an
  // empty cache, so it does exactly the cold solve's work and must report
  // exactly its counters.
  Rng rng(0x57A75);
  for (int trial = 0; trial < 20; ++trial) {
    TreeGenOptions gen;
    gen.compute_nodes = 8 + rng.index(30);
    gen.satellites = 2 + rng.index(4);
    gen.policy = trial % 3 == 0 ? SensorPolicy::kRoundRobin
                 : trial % 3 == 1 ? SensorPolicy::kClustered
                                  : SensorPolicy::kScattered;
    const CruTree base = random_tree(rng, gen);
    const ResolveSession session(base, SolvePlan::pareto_dp());
    const Colouring colouring(base);
    const ParetoDpStats cold = pareto_dp_solve(colouring).stats;
    const auto* warm = session.current().stats_as<ParetoDpStats>();
    ASSERT_NE(warm, nullptr);
    EXPECT_GT(warm->minkowski_merges, 0u) << "trial " << trial;
    EXPECT_EQ(warm->minkowski_merges, cold.minkowski_merges) << "trial " << trial;
    EXPECT_EQ(warm->merge_points_generated, cold.merge_points_generated) << "trial " << trial;
    EXPECT_EQ(warm->merge_points_kept, cold.merge_points_kept) << "trial " << trial;
    EXPECT_EQ(warm->peak_frontier, cold.peak_frontier) << "trial " << trial;
    EXPECT_EQ(warm->max_region_frontier, cold.max_region_frontier) << "trial " << trial;
    EXPECT_EQ(warm->max_colour_frontier, cold.max_colour_frontier) << "trial " << trial;
    EXPECT_EQ(warm->candidates_swept, cold.candidates_swept) << "trial " << trial;
    EXPECT_EQ(warm->arena_bytes, cold.arena_bytes) << "trial " << trial;
  }
}

TEST(IncrementalResolve, NoOpDriftReusesEveryRegionAndKeepsTheOptimum) {
  Rng rng(11);
  TreeGenOptions gen;
  gen.compute_nodes = 10;
  gen.satellites = 3;
  const CruTree base = random_tree(rng, gen);

  ResolveSession session(base, SolvePlan::pareto_dp());
  const std::vector<CruId> initial_cut = session.current().assignment.cut_nodes();
  const double initial_value = session.current().objective_value;

  session.resolve(Perturbation::global_drift(1.0, 1.0, 1.0));
  EXPECT_EQ(session.last_stats().regions_recomputed, 0u);
  EXPECT_EQ(session.last_stats().path, ResolvePath::kWarm);
  EXPECT_EQ(session.current().assignment.cut_nodes(), initial_cut);
  EXPECT_EQ(session.current().objective_value, initial_value);
}

TEST(IncrementalResolve, SatelliteLossRemovesSensorsAndOrphanedCompute) {
  const CruTree base = paper_running_example();
  const std::size_t before = base.size();
  // Satellite Y pins only sensorY under CRU7; losing Y removes both.
  const CruTree after = apply_perturbation(base, Perturbation::satellite_loss(SatelliteId{1u}));
  EXPECT_EQ(after.size(), before - 2);
  EXPECT_THROW((void)after.by_name("sensorY"), InvalidArgument);
  EXPECT_THROW((void)after.by_name("CRU7"), InvalidArgument);
  // Everything else survives and the instance still solves exactly.
  (void)after.by_name("CRU13");
  const Colouring colouring(after);
  const SolveReport optimum = solve(colouring, SolvePlan::pareto_dp());
  const SolveReport oracle = solve(colouring, SolvePlan::exhaustive());
  EXPECT_EQ(optimum.objective_value, oracle.objective_value);
}

TEST(IncrementalResolve, LosingTheWholeWorkloadIsRejected) {
  Rng rng(3);
  TreeGenOptions gen;
  gen.compute_nodes = 6;
  gen.satellites = 1;  // every sensor pinned to satellite 0
  const CruTree base = random_tree(rng, gen);
  EXPECT_THROW((void)apply_perturbation(base, Perturbation::satellite_loss(SatelliteId{0u})),
               InvalidArgument);
  EXPECT_THROW((void)apply_perturbation(base, Perturbation::satellite_loss(SatelliteId{5u})),
               InvalidArgument);
}

TEST(IncrementalResolve, InsertProbeGrowsThePlatformAndKeepsIdsStable) {
  const CruTree base = paper_running_example();
  const SatelliteId fresh{base.satellite_count()};
  const CruTree after = apply_perturbation(
      base, Perturbation::insert_probe(base.by_name("CRU3"), "probe_new", fresh, 2.0, 3.0,
                                       1.0, 0.5));
  EXPECT_EQ(after.size(), base.size() + 2);
  EXPECT_EQ(after.satellite_count(), base.satellite_count() + 1);
  // Existing ids are untouched: every old node keeps its name at its id.
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(after.node(CruId{i}).name, base.node(CruId{i}).name);
  }
  EXPECT_EQ(after.node(after.by_name("probe_new")).parent, base.by_name("CRU3"));

  // Invalid insertions are rejected before any state changes.
  EXPECT_THROW((void)apply_perturbation(
                   base, Perturbation::insert_probe(base.by_name("sensorY"), "p", fresh, 1.0,
                                                    1.0, 1.0, 1.0)),
               InvalidArgument);
  EXPECT_THROW((void)apply_perturbation(
                   base, Perturbation::insert_probe(base.by_name("CRU3"), "CRU5", fresh, 1.0,
                                                    1.0, 1.0, 1.0)),
               InvalidArgument);
  SubtreeInsert forward;
  forward.parent = base.by_name("CRU3");
  forward.nodes.push_back({1, CruKind::kCompute, "fwd", 1.0, 1.0, 1.0, SatelliteId{}});
  EXPECT_THROW((void)apply_perturbation(base, Perturbation::insert_subtree(forward)),
               InvalidArgument);
  // A probe whose sensor is named like the probe itself repeats a new name.
  EXPECT_THROW((void)apply_perturbation(
                   base, Perturbation::insert_subtree(
                             {base.by_name("CRU3"),
                              {{SubtreeInsert::kAttach, CruKind::kCompute, "twin", 1.0, 1.0, 1.0,
                                SatelliteId{}},
                               {0, CruKind::kSensor, "twin", 0.0, 0.0, 1.0, fresh}}})),
               InvalidArgument);
}

TEST(IncrementalResolve, InvalidDriftIsRejectedWithoutTouchingTheSession) {
  const CruTree base = paper_running_example();
  ResolveSession session(base, SolvePlan::pareto_dp());
  const double initial = session.current().objective_value;
  EXPECT_THROW((void)session.resolve(Perturbation::global_drift(0.0, 1.0, 1.0)),
               InvalidArgument);
  EXPECT_THROW((void)session.resolve(
                   Perturbation::satellite_drift(SatelliteId{99u}, 1.1, 1.1, 1.1)),
               InvalidArgument);
  // The session still serves its previous instance.
  EXPECT_EQ(session.current().objective_value, initial);
  EXPECT_EQ(session.step(), 0u);
  session.resolve(Perturbation::global_drift(1.1, 1.1, 1.1));
  EXPECT_EQ(session.step(), 1u);
}

// The other two warm engines: exact values, incumbent reported.
TEST(IncrementalResolve, ColouredSsbAndBranchBoundWarmStartsStayExact) {
  Rng rng(0xBEEF);
  TreeGenOptions gen;
  gen.compute_nodes = 8;
  gen.satellites = 3;
  gen.policy = SensorPolicy::kClustered;
  const CruTree base = random_tree(rng, gen);
  DriftOptions drift;
  drift.steps = 6;
  drift.p_loss = 0.0;  // keep the previous cut feasible: ids stay stable
  drift.p_insert = 0.0;
  const std::vector<Perturbation> stream = drift_stream(rng, base, drift);

  const SolvePlan plans[] = {SolvePlan::coloured_ssb(), SolvePlan::branch_bound()};
  for (const SolvePlan& plan : plans) {
    ResolveSession session(base, plan);
    CruTree shadow = base;
    for (const Perturbation& p : stream) {
      const SolveReport& warm = session.resolve(p);
      shadow = apply_perturbation(shadow, p);
      const Colouring cold_colouring(shadow);
      const SolveReport oracle = solve(cold_colouring, SolvePlan::exhaustive());
      EXPECT_NEAR(warm.objective_value, oracle.objective_value,
                  1e-12 * (1.0 + oracle.objective_value))
          << method_name(plan.method());
      EXPECT_EQ(session.last_stats().path, ResolvePath::kWarm);
      EXPECT_TRUE(session.last_stats().incumbent_used);
    }
    if (plan.method() == SolveMethod::kColouredSsb) {
      const auto* stats = session.current().stats_as<ColouredSsbStats>();
      ASSERT_NE(stats, nullptr);
      EXPECT_TRUE(stats->warm_started);
    }
  }
}

TEST(IncrementalResolve, ColourHitsKeepTheirRegionEntries) {
  // 20 no-op steps are served entirely by colour-level hits. A colour hit
  // rebuilds its picked point's cut from the colour's region entries, so it
  // keeps them through every post-solve sweep; a later localized insertion
  // into one region of colour B can then still reuse B's *other* region
  // from the region-level cache -- only the region actually touched may
  // recompute.
  const CruTree base = paper_running_example();
  ResolveSession session(base, SolvePlan::pareto_dp());
  for (int i = 0; i < 20; ++i) {
    session.resolve(Perturbation::global_drift(1.0, 1.0, 1.0));
    ASSERT_EQ(session.last_stats().regions_recomputed, 0u) << "step " << i;
  }
  const SatelliteId b{2u};  // colour B has two regions (CRU5, CRU6 subtrees)
  ASSERT_EQ(session.colouring().regions_of(b).size(), 2u);
  session.resolve(Perturbation::insert_probe(session.tree().by_name("CRU11"), "b_probe", b,
                                             1.0, 1.0, 1.0, 1.0));
  EXPECT_EQ(session.last_stats().regions_recomputed, 1u);
  EXPECT_EQ(session.last_stats().regions_reused,
            session.last_stats().regions_total - 1);
}

/// An exact content signature of one region -- its preorder (children left
/// to right) with region-relative parent positions, node kinds and the bit
/// patterns of every cost -- written independently of the session's keys.
std::vector<std::uint64_t> region_signature(const CruTree& tree, CruId root) {
  std::vector<std::uint64_t> words;
  std::vector<std::pair<CruId, std::uint64_t>> stack{{root, ~std::uint64_t{0}}};
  std::uint64_t position = 0;
  while (!stack.empty()) {
    const auto [v, parent] = stack.back();
    stack.pop_back();
    const CruNode& nd = tree.node(v);
    words.insert(words.end(), {parent, nd.is_sensor() ? 1u : 0u,
                               std::bit_cast<std::uint64_t>(nd.host_time),
                               std::bit_cast<std::uint64_t>(nd.sat_time),
                               std::bit_cast<std::uint64_t>(nd.comm_up)});
    for (auto it = nd.children.rbegin(); it != nd.children.rend(); ++it) {
      stack.emplace_back(*it, position);
    }
    ++position;
  }
  return words;
}

void expect_same_stats(const ResolveStats& a, const ResolveStats& b, const std::string& ctx) {
  EXPECT_EQ(a.path, b.path) << ctx;
  EXPECT_EQ(a.step, b.step) << ctx;
  EXPECT_EQ(a.regions_total, b.regions_total) << ctx;
  EXPECT_EQ(a.regions_reused, b.regions_reused) << ctx;
  EXPECT_EQ(a.regions_recomputed, b.regions_recomputed) << ctx;
  EXPECT_EQ(a.colours_total, b.colours_total) << ctx;
  EXPECT_EQ(a.colours_reused, b.colours_reused) << ctx;
  EXPECT_EQ(a.cache_entries, b.cache_entries) << ctx;
  EXPECT_EQ(a.incumbent_used, b.incumbent_used) << ctx;
  EXPECT_EQ(a.cold_reason, b.cold_reason) << ctx;
}

TEST(IncrementalResolve, CacheHoldsOneGenerationThatExportImportReproduces) {
  // After every step of a long mixed stream the caches hold exactly one
  // entry per distinct colour key and per distinct region key of the
  // current colouring -- what the latest solve touched, nothing older --
  // and a session rebuilt from its export charges the same bytes and takes
  // the same decisions on the next step.
  Rng rng(0x0E6E);
  TreeGenOptions gen;
  gen.compute_nodes = 30;
  gen.satellites = 4;
  gen.policy = SensorPolicy::kClustered;
  const CruTree base = random_tree(rng, gen);
  DriftOptions drift;
  drift.steps = 48;
  drift.p_global = 0.2;
  drift.p_loss = 0.06;
  drift.p_insert = 0.15;
  const std::vector<Perturbation> stream = drift_stream(rng, base, drift);
  std::set<std::string> kinds;
  std::size_t global = 0;
  for (const Perturbation& p : stream) {
    kinds.insert(p.kind_name());
    if (const auto* d = p.as<ProfileDrift>(); d != nullptr && !d->satellite.valid()) ++global;
  }
  ASSERT_GE(stream.size(), 40u);
  ASSERT_EQ(kinds.size(), 3u) << "the stream must mix drift, loss and insertion";
  ASSERT_GT(global, 0u);

  ResolveSession session(base, SolvePlan::pareto_dp());
  ResolveSession restored = ResolveSession::import_state(session.export_state());
  for (std::size_t step = 0; step < stream.size(); ++step) {
    const std::string ctx = "step " + std::to_string(step) + " (" + stream[step].kind_name() + ")";
    const SolveReport& warm = session.resolve(stream[step]);
    const SolveReport& back = restored.resolve(stream[step]);
    ASSERT_EQ(warm.assignment.cut_nodes(), back.assignment.cut_nodes()) << ctx;
    ASSERT_EQ(warm.objective_value, back.objective_value) << ctx;
    expect_same_stats(session.last_stats(), restored.last_stats(), ctx);
    EXPECT_EQ(session.cached_bytes(), restored.cached_bytes()) << ctx;

    std::set<std::vector<std::uint64_t>> colour_keys;
    std::set<std::vector<std::uint64_t>> region_keys;
    const Colouring& colouring = session.colouring();
    for (std::size_t c = 0; c < session.tree().satellite_count(); ++c) {
      std::vector<std::uint64_t> colour_key;
      for (const CruId r : colouring.regions_of(SatelliteId{c})) {
        const std::vector<std::uint64_t> region = region_signature(session.tree(), r);
        colour_key.push_back(region.size());
        colour_key.insert(colour_key.end(), region.begin(), region.end());
        region_keys.insert(region);
      }
      if (!colour_key.empty()) colour_keys.insert(colour_key);
    }
    EXPECT_EQ(session.last_stats().cache_entries, colour_keys.size() + region_keys.size())
        << ctx;

    restored = ResolveSession::import_state(session.export_state());
    EXPECT_EQ(restored.cached_bytes(), session.cached_bytes()) << ctx;
  }
}

TEST(IncrementalResolve, SolverFailureRollsTheSessionBack) {
  const CruTree base = paper_running_example();
  const Colouring colouring(base);
  const SolveReport probe = solve(colouring, SolvePlan::exhaustive());
  const std::size_t base_count = probe.stats_as<ExhaustiveStats>()->assignments_enumerated;

  // A cap the base instance just fits under: the initial solve succeeds,
  // but any perturbation that grows the cut space blows it.
  ExhaustiveOptions options;
  options.cap = base_count + 1;
  ResolveSession session(base, SolvePlan::exhaustive(options));
  const double initial = session.current().objective_value;

  EXPECT_THROW((void)session.resolve(Perturbation::insert_probe(
                   base.by_name("CRU3"), "late_probe", SatelliteId{0u}, 1.0, 1.0, 1.0, 1.0)),
               ResourceLimit);
  // The session rolled back: current() is still the base optimum and the
  // next (harmless) perturbation resolves normally.
  EXPECT_EQ(session.current().objective_value, initial);
  EXPECT_EQ(session.step(), 0u);
  EXPECT_EQ(session.tree().size(), base.size());
  session.resolve(Perturbation::global_drift(1.0, 1.0, 1.0));
  EXPECT_EQ(session.step(), 1u);
  EXPECT_EQ(session.current().objective_value, initial);
}

TEST(IncrementalResolve, SatelliteLossDiscardsTheIncumbentOnIdRemappingEngines) {
  // Loss compacts node ids, so the previous optimum's cut ids may denote
  // different nodes: the incumbent warm start of the coloured-ssb and
  // branch-and-bound engines must be discarded, and say why.
  for (const SolvePlan& plan : {SolvePlan::coloured_ssb(), SolvePlan::branch_bound()}) {
    ResolveSession session(paper_running_example(), plan);
    session.resolve(Perturbation::satellite_loss(SatelliteId{1u}));
    EXPECT_EQ(session.last_stats().path, ResolvePath::kCold);
    EXPECT_FALSE(session.last_stats().incumbent_used);
    EXPECT_NE(session.last_stats().cold_reason.find("remapped"), std::string::npos);
    // Exactness is untouched: the cold solve still matches the oracle.
    const SolveReport oracle = solve(session.colouring(), SolvePlan::exhaustive());
    EXPECT_EQ(session.current().objective_value, oracle.objective_value);
  }
}

TEST(IncrementalResolve, RetryAfterARolledBackSolveStillReportsWarmReuse) {
  // A resolve that throws mid-engine stamps cache entries before rolling
  // back; the subsequent (successful) retry must still classify hits on
  // pre-failure state as reuse, not as fresh work (attempt counter, not
  // step number, is the stamp domain).
  const CruTree base = paper_running_example();
  const Colouring colouring(base);
  ParetoDpOptions options;
  options.max_frontier =
      pareto_dp_solve(colouring).stats.max_colour_frontier;  // base just fits

  ResolveSession session(base, SolvePlan::pareto_dp(options));
  const double initial = session.current().objective_value;

  // Three probes into colour B's CRU5 region push its merged frontier past
  // the cap (measured: 9 -> 19), so this resolve throws and rolls back.
  SubtreeInsert burst;
  burst.parent = base.by_name("CRU11");
  const SatelliteId b{2u};
  for (std::size_t k = 0; k < 3; ++k) {
    const double kd = static_cast<double>(k);
    burst.nodes.push_back({SubtreeInsert::kAttach, CruKind::kCompute,
                           "p" + std::to_string(k), 1.0 + kd, 2.0 + kd, 0.5 + kd,
                           SatelliteId{}});
    burst.nodes.push_back({2 * k, CruKind::kSensor, "s" + std::to_string(k), 0.0, 0.0,
                           0.7 + kd, b});
  }
  EXPECT_THROW((void)session.resolve(Perturbation::insert_subtree(burst)), ResourceLimit);
  EXPECT_EQ(session.current().objective_value, initial);

  session.resolve(Perturbation::global_drift(1.0, 1.0, 1.0));
  EXPECT_EQ(session.last_stats().path, ResolvePath::kWarm);
  EXPECT_EQ(session.last_stats().regions_recomputed, 0u);
  EXPECT_EQ(session.last_stats().regions_reused, session.last_stats().regions_total);
  EXPECT_EQ(session.current().objective_value, initial);
}

TEST(IncrementalResolve, HeuristicPlansFallBackToColdWithAReason) {
  const CruTree base = paper_running_example();
  ResolveSession session(base, SolvePlan::greedy());
  session.resolve(Perturbation::global_drift(1.1, 1.0, 1.0));
  EXPECT_EQ(session.last_stats().path, ResolvePath::kCold);
  EXPECT_FALSE(session.last_stats().cold_reason.empty());
  EXPECT_FALSE(session.current().exact);
}

TEST(IncrementalResolve, SolveStreamWarmMatchesColdBatchOnStandardScenarios) {
  DriftOptions options;
  options.steps = 8;
  for (const DriftStream& ds : standard_drift_streams(0x5EED, options)) {
    SolvePlan warm_plan = SolvePlan::pareto_dp();
    warm_plan.with_executor({.threads = 1, .warm_start = true});
    SolvePlan cold_plan = SolvePlan::pareto_dp();
    cold_plan.with_executor({.threads = 2, .warm_start = false});

    const StreamResult warm = solve_stream(ds.base, ds.stream, warm_plan);
    const StreamResult cold = solve_stream(ds.base, ds.stream, cold_plan);

    EXPECT_TRUE(warm.warm) << ds.name;
    EXPECT_FALSE(cold.warm) << ds.name;
    ASSERT_EQ(warm.reports.size(), ds.stream.size()) << ds.name;
    ASSERT_EQ(cold.reports.size(), ds.stream.size()) << ds.name;
    ASSERT_EQ(warm.stats.size(), cold.stats.size()) << ds.name;
    for (std::size_t i = 0; i < warm.reports.size(); ++i) {
      EXPECT_EQ(warm.reports[i].assignment.cut_nodes(),
                cold.reports[i].assignment.cut_nodes())
          << ds.name << " step " << i;
      EXPECT_EQ(warm.reports[i].objective_value, cold.reports[i].objective_value)
          << ds.name << " step " << i;
      EXPECT_EQ(cold.stats[i].path, ResolvePath::kCold);
      // Every report references the result's own storage, not the session's.
      EXPECT_EQ(&warm.reports[i].assignment.colouring(), &warm.colourings[i]);
    }
  }
}

TEST(IncrementalResolve, WarmStreamHonoursTheDeadlineBetweenSteps) {
  DriftOptions options;
  options.steps = 4;
  Rng rng(21);
  const CruTree base = paper_running_example();
  const std::vector<Perturbation> stream = drift_stream(rng, base, options);

  SolvePlan plan = SolvePlan::pareto_dp();
  plan.with_executor({.deadline_seconds = 1e-12, .warm_start = true});
  EXPECT_THROW((void)solve_stream(base, stream, plan), ResourceLimit);

  plan.with_executor({.deadline_seconds = 0.0, .warm_start = true});  // 0 = none
  EXPECT_EQ(solve_stream(base, stream, plan).reports.size(), stream.size());
}

TEST(IncrementalResolve, WarmStartSpecKeyRoundTrips) {
  const SolvePlan plan = parse_plan("pareto-dp:warm_start=true,threads=2");
  EXPECT_TRUE(plan.executor().warm_start);
  EXPECT_EQ(plan.executor().threads, 2u);
  const std::string spec = plan_spec(plan);
  EXPECT_NE(spec.find("warm_start=true"), std::string::npos);
  EXPECT_TRUE(parse_plan(spec).executor().warm_start);
  EXPECT_FALSE(parse_plan("pareto-dp").executor().warm_start);
  EXPECT_THROW((void)parse_plan("pareto-dp:warm_start=maybe"), InvalidArgument);
  EXPECT_THROW((void)parse_plan("pareto-dp:warm_start=true,warm_start=false"),
               InvalidArgument);
}

TEST(IncrementalResolve, RequestedMethodNamesTheSessionPlan) {
  // The facade contract: `requested` is what the plan asked for (kAutomatic
  // when resolution chose), `method` is what ran -- on every session path.
  ResolveSession session(paper_running_example(), SolvePlan::automatic());
  EXPECT_EQ(session.current().requested, SolveMethod::kAutomatic);
  EXPECT_NE(session.current().method, SolveMethod::kAutomatic);
  session.resolve(Perturbation::global_drift(1.05, 1.0, 1.0));
  EXPECT_EQ(session.current().requested, SolveMethod::kAutomatic);
  EXPECT_NE(session.current().method, SolveMethod::kAutomatic);
}

/// Drift streams over the library scenarios and over one tree of each
/// generator shape: chain, star, skewed and clustered.
std::vector<DriftStream> mixed_drift_streams(std::uint64_t seed, std::size_t steps) {
  DriftOptions options;
  options.steps = steps;
  std::vector<DriftStream> streams = standard_drift_streams(seed, options);
  Rng rng(seed);
  ChainGenOptions chain;
  chain.compute_nodes = 60;
  chain.satellites = 3;
  chain.sensor_every = 6;
  StarGenOptions star;
  star.arms = 24;
  SkewGenOptions skewed;
  skewed.compute_nodes = 48;
  TreeGenOptions clustered;
  clustered.compute_nodes = 40;
  clustered.satellites = 4;
  clustered.max_children = 2;
  clustered.policy = SensorPolicy::kClustered;
  const std::pair<std::string, CruTree> trees[] = {{"chain-60", chain_tree(rng, chain)},
                                                   {"star-24", star_tree(rng, star)},
                                                   {"skewed-48", skewed_tree(rng, skewed)},
                                                   {"clustered-40", random_tree(rng, clustered)}};
  for (const auto& [name, tree] : trees) {
    std::vector<Perturbation> stream = drift_stream(rng, tree, options);
    streams.push_back({name, tree, std::move(stream)});
  }
  return streams;
}

/// The drift of `tree` by `d` rebuilt node by node through CruTreeBuilder,
/// with the products a drift forms.
CruTree rebuilt_with_drift(const CruTree& tree, const ProfileDrift& d) {
  const Colouring colouring(tree);
  CruTreeBuilder b;
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const CruId v{i};
    const CruNode& nd = tree.node(v);
    const bool scale = !d.satellite.valid() || colouring.colour(v) == d.satellite;
    const double h = scale ? nd.host_time * d.host_scale : nd.host_time;
    const double s = scale ? nd.sat_time * d.sat_scale : nd.sat_time;
    const double c = scale ? nd.comm_up * d.comm_scale : nd.comm_up;
    if (!nd.parent.valid()) {
      b.root(nd.name, h);
    } else if (nd.is_sensor()) {
      b.sensor(nd.parent, nd.name, nd.satellite, c);
    } else {
      b.compute(nd.parent, nd.name, h, s, c);
    }
  }
  return b.build();
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(IncrementalResolve, DriftRescalesCostsBitIdenticalToABuilderRebuild) {
  // A drift copies the cost arrays and rescales them in place on the shared
  // topology; every cost and every derived sum must equal, bit for bit, the
  // tree the builder makes from the same products.
  std::size_t drifts = 0;
  for (const DriftStream& ds : mixed_drift_streams(0xD21F7, 40)) {
    CruTree current = ds.base;
    for (std::size_t step = 0; step < ds.stream.size(); ++step) {
      const Perturbation& p = ds.stream[step];
      const std::string ctx =
          ds.name + " step " + std::to_string(step) + " (" + p.kind_name() + ")";
      CruTree next = apply_perturbation(current, p);
      const ProfileDrift* d = p.as<ProfileDrift>();
      if (d == nullptr) {
        EXPECT_FALSE(next.shares_topology_with(current)) << ctx;
        current = std::move(next);
        continue;
      }
      ++drifts;
      EXPECT_TRUE(next.shares_topology_with(current)) << ctx;
      const CruTree reference = rebuilt_with_drift(current, *d);
      ASSERT_EQ(next.size(), reference.size()) << ctx;
      for (std::size_t i = 0; i < next.size(); ++i) {
        const CruId v{i};
        EXPECT_EQ(bits(next.node(v).host_time), bits(reference.node(v).host_time)) << ctx;
        EXPECT_EQ(bits(next.node(v).sat_time), bits(reference.node(v).sat_time)) << ctx;
        EXPECT_EQ(bits(next.node(v).comm_up), bits(reference.node(v).comm_up)) << ctx;
        EXPECT_EQ(bits(next.subtree_sat_time(v)), bits(reference.subtree_sat_time(v))) << ctx;
      }
      EXPECT_EQ(bits(next.total_host_time()), bits(reference.total_host_time())) << ctx;
      EXPECT_EQ(bits(Colouring(next).forced_host_time()),
                bits(Colouring(reference).forced_host_time()))
          << ctx;
      current = std::move(next);
    }
  }
  EXPECT_GT(drifts, 200u);
}

TEST(IncrementalResolve, ASessionWithoutItsMemoAnswersTheSame) {
  // A session remembers which cache entries served each colour at its last
  // successful solve, so a satellite drift imports the untouched colours
  // without keying them. A session rebuilt by import_state before every step
  // has no such memory and keys every colour. Both must answer every step
  // identically -- rolled-back steps and the steps after them included.
  std::vector<DriftStream> streams = mixed_drift_streams(0x3E30, 24);
  // Rollbacks: overflowing drifts, which the cost rule rejects before the
  // solve, and a burst insertion past a max_frontier cap (the solve throws).
  DriftStream capped{"capped", paper_running_example(), {}};
  SubtreeInsert burst;
  burst.parent = capped.base.by_name("CRU11");
  for (std::size_t k = 0; k < 3; ++k) {
    const double kd = static_cast<double>(k);
    burst.nodes.push_back({SubtreeInsert::kAttach, CruKind::kCompute, "p" + std::to_string(k),
                           1.0 + kd, 2.0 + kd, 0.5 + kd, SatelliteId{}});
    burst.nodes.push_back(
        {2 * k, CruKind::kSensor, "s" + std::to_string(k), 0.0, 0.0, 0.7 + kd, SatelliteId{2u}});
  }
  capped.stream = {Perturbation::satellite_drift(SatelliteId{0u}, 1.1, 0.9, 1.05),
                   Perturbation::insert_subtree(burst),
                   Perturbation::satellite_drift(SatelliteId{1u}, 0.8, 1.2, 1.0),
                   Perturbation::satellite_drift(SatelliteId{2u}, 1e300, 1e300, 1e300),
                   Perturbation::satellite_drift(SatelliteId{2u}, 1e300, 1e300, 1e300),
                   Perturbation::satellite_drift(SatelliteId{3u}, 1.3, 1.0, 0.7),
                   Perturbation::global_drift(0.9, 1.1, 1.0),
                   Perturbation::satellite_drift(SatelliteId{0u}, 1.0, 1.0, 1.0)};
  streams.push_back(std::move(capped));

  std::size_t failures = 0;
  for (const DriftStream& ds : streams) {
    ParetoDpOptions options;
    if (ds.name == "capped") {
      options.max_frontier = pareto_dp_solve(Colouring(ds.base)).stats.max_colour_frontier;
    }
    ResolveSession kept(ds.base, SolvePlan::pareto_dp(options));
    ResolveSession rebuilt = ResolveSession::import_state(kept.export_state());
    for (std::size_t step = 0; step < ds.stream.size(); ++step) {
      const Perturbation& p = ds.stream[step];
      const std::string ctx =
          ds.name + " step " + std::to_string(step) + " (" + p.kind_name() + ")";
      rebuilt = ResolveSession::import_state(rebuilt.export_state());
      std::string kept_error;
      std::string rebuilt_error;
      try {
        kept.resolve(p);
      } catch (const std::exception& e) {
        kept_error = e.what();
      }
      try {
        rebuilt.resolve(p);
      } catch (const std::exception& e) {
        rebuilt_error = e.what();
      }
      ASSERT_EQ(kept_error, rebuilt_error) << ctx;
      failures += kept_error.empty() ? 0 : 1;
      EXPECT_EQ(bits(kept.current().objective_value), bits(rebuilt.current().objective_value))
          << ctx;
      EXPECT_EQ(kept.current().assignment.cut_nodes(), rebuilt.current().assignment.cut_nodes())
          << ctx;
      expect_same_stats(kept.last_stats(), rebuilt.last_stats(), ctx);
      EXPECT_EQ(kept.cached_bytes(), rebuilt.cached_bytes()) << ctx;
    }
  }
  EXPECT_EQ(failures, 2u);  // the burst and the second overflowing drift
}

TEST(IncrementalResolve, DriftStreamsAreDeterministic) {
  Rng a(42);
  Rng b(42);
  const CruTree base = paper_running_example();
  DriftOptions options;
  options.steps = 12;
  const std::vector<Perturbation> s1 = drift_stream(a, base, options);
  const std::vector<Perturbation> s2 = drift_stream(b, base, options);
  ASSERT_EQ(s1.size(), s2.size());
  CruTree t1 = base;
  CruTree t2 = base;
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_STREQ(s1[i].kind_name(), s2[i].kind_name()) << i;
    t1 = apply_perturbation(t1, s1[i]);
    t2 = apply_perturbation(t2, s2[i]);
    ASSERT_EQ(t1.size(), t2.size()) << i;
  }
}

}  // namespace
}  // namespace treesat
