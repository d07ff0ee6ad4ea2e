// E-INC: incremental re-solving on drift streams (core/incremental.hpp).
//
// Two claims, both load-bearing for the adaptation-loop story:
//   1. Correctness: the warm path is byte-identical to cold solving -- same
//      cut node ids, same objective bits -- at every step of every stream.
//      Any mismatch fails the binary (exit 1).
//   2. Speed: on instances where colour-region frontier computation
//      dominates (deep clustered regions), the warm path beats cold
//      re-solving, because a localized perturbation leaves most cached
//      frontiers valid. The binary also fails if warm is not faster in
//      aggregate on the large-instance sweep.
//
// Section 1 runs the standard scenario library's drift streams (realistic,
// small); section 2 sweeps large clustered instances where the win shows;
// section 3 (ungated) prices a session's initial solve against a bare
// pareto_dp_solve of the same tree -- the keying and cache write-out a
// session pays once before its first warm re-solve can win anything back;
// section 4 (ungated but for identity) runs the standard drift mix over one
// generator tree of each shape, where per-step costs outside the frontier
// work (apply, recolouring, keying) decide whether warm wins.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/incremental.hpp"
#include "io/table.hpp"
#include "workload/drift.hpp"
#include "workload/generator.hpp"

namespace treesat {
namespace {

/// Warm and cold runs of one stream; returns false on any identity mismatch.
struct StreamComparison {
  double warm_seconds = 0.0;
  double cold_seconds = 0.0;
  std::size_t warm_steps = 0;
  std::size_t regions_reused = 0;
  std::size_t regions_total = 0;
  bool identical = true;
};

StreamComparison compare_stream(const CruTree& base, const std::vector<Perturbation>& stream,
                                const std::string& name) {
  SolvePlan warm_plan = SolvePlan::pareto_dp();
  warm_plan.with_executor({.threads = 1, .warm_start = true});
  SolvePlan cold_plan = SolvePlan::pareto_dp();
  cold_plan.with_executor({.threads = 1, .warm_start = false});

  // Best of 5 per path: a single sub-10ms stream solve is scheduler-noise
  // dominated (especially on small hosts), and both the warm<cold gate
  // below and the bench_diff baseline comparison need stable ratios.
  // Identity is checked on the first pair -- repeats are byte-identical by
  // the engines' own determinism contracts.
  const StreamResult warm = solve_stream(base, stream, warm_plan);
  const StreamResult cold = solve_stream(base, stream, cold_plan);
  StreamComparison cmp;
  cmp.warm_seconds = warm.wall_seconds;
  cmp.cold_seconds = cold.wall_seconds;
  for (int rep = 1; rep < 5; ++rep) {
    cmp.warm_seconds =
        std::min(cmp.warm_seconds, solve_stream(base, stream, warm_plan).wall_seconds);
    cmp.cold_seconds =
        std::min(cmp.cold_seconds, solve_stream(base, stream, cold_plan).wall_seconds);
  }
  for (std::size_t i = 0; i < warm.reports.size(); ++i) {
    if (warm.reports[i].assignment.cut_nodes() != cold.reports[i].assignment.cut_nodes() ||
        warm.reports[i].objective_value != cold.reports[i].objective_value) {
      std::cerr << "IDENTITY FAILURE: " << name << " step " << i
                << ": warm objective " << warm.reports[i].objective_value << " vs cold "
                << cold.reports[i].objective_value << "\n";
      cmp.identical = false;
    }
    if (warm.stats[i].path == ResolvePath::kWarm) ++cmp.warm_steps;
    cmp.regions_reused += warm.stats[i].regions_reused;
    cmp.regions_total += warm.stats[i].regions_total;
  }
  return cmp;
}

/// Best-of-`reps` wall time of `fn` (seconds).
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    const Stopwatch watch;
    fn();
    const double t = watch.seconds();
    if (best < 0.0 || t < best) best = t;
  }
  return best;
}

void add_row(Table& t, const std::string& name, std::size_t steps,
             const StreamComparison& cmp) {
  t.add(name, steps, cmp.warm_seconds * 1e3, cmp.cold_seconds * 1e3,
        cmp.cold_seconds / cmp.warm_seconds,
        std::to_string(cmp.warm_steps) + "/" + std::to_string(steps),
        100.0 * static_cast<double>(cmp.regions_reused) /
            static_cast<double>(cmp.regions_total));
  // Row ratios are deliberately named without "speedup"/"ratio": per-row
  // sub-millisecond streams are too noisy to gate, so bench_diff tracks
  // only the aggregate warm_speedup_ratio scalar (ci.sh --keys).
  bench::json().add_row(name, {{"steps", static_cast<double>(steps)},
                               {"warm_ms", cmp.warm_seconds * 1e3},
                               {"cold_ms", cmp.cold_seconds * 1e3},
                               {"warm_vs_cold", cmp.cold_seconds / cmp.warm_seconds},
                               {"regions_total", static_cast<double>(cmp.regions_total)}});
}

}  // namespace
}  // namespace treesat

int main(int argc, char** argv) {
  using namespace treesat;
  bench::BenchJson::init("bench_incremental", &argc, argv);

  bool all_identical = true;

  bench::banner("E-INC1", "standard scenario drift streams, warm vs cold (byte-identity)");
  {
    DriftOptions options;
    options.steps = 32;
    Table t({"scenario", "steps", "warm [ms]", "cold [ms]", "speedup", "warm steps",
             "regions reused [%]"});
    for (const DriftStream& ds : standard_drift_streams(0xD21F7, options)) {
      const StreamComparison cmp = compare_stream(ds.base, ds.stream, ds.name);
      all_identical = all_identical && cmp.identical;
      add_row(t, ds.name, ds.stream.size(), cmp);
    }
    t.print(std::cout);
    bench::note("optima byte-identical at every step; these instances are small, so the");
    bench::note("warm win is modest -- the sweep below is where frontier work dominates");
  }

  bench::banner("E-INC2",
                "large clustered instances: localized drift, frontier reuse (speedup)");
  double warm_total = 0.0;
  double cold_total = 0.0;
  {
    Rng rng(0xB16);
    DriftOptions options;
    options.steps = 24;
    options.p_loss = 0.0;    // keep ids stable: pure profile drift, the hot case
    options.p_insert = 0.0;
    options.p_global = 0.0;  // localized drift only: a global drift invalidates
                             // every cached frontier and measures overhead, not reuse
    Table t({"compute CRUs", "satellites", "steps", "warm [ms]", "cold [ms]", "speedup",
             "warm steps", "regions reused [%]"});
    // Sizes start where frontier work dominates the per-step O(n) costs
      // (perturbation rebuild, colouring, content keying) -- below ~100
      // compute nodes those fixed costs eat the reuse win and the ratio is
      // noise around 1.0 (the crossover on a small host).
      for (const std::size_t n : {96u, 144u, 192u}) {
      TreeGenOptions gen;
      gen.compute_nodes = n;
      gen.satellites = 4;
      gen.max_children = 2;  // deep regions: frontiers worth caching
      gen.policy = SensorPolicy::kClustered;
      const CruTree base = random_tree(rng, gen);
      const std::vector<Perturbation> stream = drift_stream(rng, base, options);
      const StreamComparison cmp =
          compare_stream(base, stream, "clustered-" + std::to_string(n));
      all_identical = all_identical && cmp.identical;
      warm_total += cmp.warm_seconds;
      cold_total += cmp.cold_seconds;
      t.add(n, gen.satellites, stream.size(), cmp.warm_seconds * 1e3,
            cmp.cold_seconds * 1e3, cmp.cold_seconds / cmp.warm_seconds,
            std::to_string(cmp.warm_steps) + "/" + std::to_string(stream.size()),
            100.0 * static_cast<double>(cmp.regions_reused) /
                static_cast<double>(cmp.regions_total));
      bench::json().add_row(
          "clustered-" + std::to_string(n),
          {{"compute_nodes", static_cast<double>(n)},
           {"steps", static_cast<double>(stream.size())},
           {"warm_ms", cmp.warm_seconds * 1e3},
           {"cold_ms", cmp.cold_seconds * 1e3},
           {"warm_vs_cold", cmp.cold_seconds / cmp.warm_seconds}});
    }
    t.print(std::cout);
  }

  bench::banner("E-INC3", "initial-solve overhead: ResolveSession constructor vs pareto_dp_solve");
  {
    // The shapes the serving benchmark's sessions start from: spill_churn's
    // 128-node stars, E-INC2's deep clustered trees, and colour-skewed
    // trees. The bare solve gets a prebuilt colouring; the session builds
    // its own, then keys every region and colour and writes the cache
    // entries. Best of 15 each; informational, not gated.
    Rng rng(0x1417);
    StarGenOptions star;
    star.arms = 64;
    TreeGenOptions clustered;
    clustered.compute_nodes = 96;
    clustered.satellites = 4;
    clustered.max_children = 2;
    clustered.policy = SensorPolicy::kClustered;
    SkewGenOptions skewed;
    skewed.compute_nodes = 128;
    const std::pair<std::string, CruTree> trees[] = {
        {"star-128", star_tree(rng, star)},
        {"clustered-96", random_tree(rng, clustered)},
        {"skewed-128", skewed_tree(rng, skewed)}};
    Table t({"tree", "nodes", "session [us]", "pareto_dp_solve [us]", "session / solve"});
    for (const auto& [name, tree] : trees) {
      const Colouring colouring(tree);
      const double bare = best_of(15, [&] { static_cast<void>(pareto_dp_solve(colouring)); });
      double session = -1.0;
      for (int rep = 0; rep < 15; ++rep) {
        CruTree copy = tree;
        const Stopwatch watch;
        const ResolveSession built(std::move(copy));
        const double seconds = watch.seconds();
        if (session < 0.0 || seconds < session) session = seconds;
      }
      t.add(name, tree.size(), session * 1e6, bare * 1e6, session / bare);
      bench::json().add_row("initial-" + name, {{"nodes", static_cast<double>(tree.size())},
                                                {"session_us", session * 1e6},
                                                {"solve_us", bare * 1e6},
                                                {"session_over_solve", session / bare}});
    }
    t.print(std::cout);
    bench::note("session time is its constructor: colouring, solve, keying and cache");
    bench::note("write-out (the tree copy it takes is outside the timer)");
  }

  bench::banner("E-INC4", "generator shapes under the standard drift mix, warm vs cold");
  {
    // The default mix -- mostly single-satellite drifts, some global
    // drifts, losses and probe insertions -- over a 60-arm star, a chain,
    // a clustered and a skewed tree. Identity is asserted at every step;
    // the speedups are reported, not gated.
    Rng rng(5);
    DriftOptions options;
    options.steps = 64;
    StarGenOptions star;
    star.arms = 60;
    ChainGenOptions chain;
    chain.compute_nodes = 160;
    chain.satellites = 4;
    chain.sensor_every = 8;
    TreeGenOptions clustered;
    clustered.compute_nodes = 96;
    clustered.satellites = 4;
    clustered.max_children = 2;
    clustered.policy = SensorPolicy::kClustered;
    SkewGenOptions skewed;
    skewed.compute_nodes = 128;
    const std::pair<std::string, CruTree> trees[] = {{"star-60", star_tree(rng, star)},
                                                     {"chain-160", chain_tree(rng, chain)},
                                                     {"clustered-96", random_tree(rng, clustered)},
                                                     {"skewed-128", skewed_tree(rng, skewed)}};
    Table t({"tree", "steps", "warm [ms]", "cold [ms]", "speedup", "warm steps",
             "regions reused [%]"});
    double log_sum = 0.0;
    for (const auto& [name, tree] : trees) {
      const std::vector<Perturbation> stream = drift_stream(rng, tree, options);
      const StreamComparison cmp = compare_stream(tree, stream, "drift-" + name);
      all_identical = all_identical && cmp.identical;
      add_row(t, "drift-" + name, stream.size(), cmp);
      log_sum += std::log(cmp.cold_seconds / cmp.warm_seconds);
    }
    t.print(std::cout);
    const double geomean = std::exp(log_sum / static_cast<double>(std::size(trees)));
    std::cout << "geomean speedup " << geomean << "\n";
    bench::json().set("shapes_warm_vs_cold_geomean", geomean);
  }

  if (!all_identical) {
    std::cerr << "\nFAIL: warm re-solve diverged from the cold optimum\n";
    return 1;
  }
  if (warm_total >= cold_total) {
    std::cerr << "\nFAIL: warm re-solving (" << warm_total * 1e3
              << " ms) did not beat cold re-solving (" << cold_total * 1e3
              << " ms) on the large-instance sweep\n";
    return 1;
  }
  std::cout << "\nOK: byte-identical optima everywhere; warm beat cold "
            << warm_total * 1e3 << " ms vs " << cold_total * 1e3 << " ms ("
            << cold_total / warm_total << "x) on the large-instance sweep\n";
  bench::json().set("warm_total_ms", warm_total * 1e3);
  bench::json().set("cold_total_ms", cold_total * 1e3);
  bench::json().set("warm_speedup_ratio", cold_total / warm_total);
  return bench::json().write() ? 0 : 1;
}
