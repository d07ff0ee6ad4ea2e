// Experiment E3 (paper Fig 9): the expansion step. Builds instances where
// the bottleneck of the min-S path is a multi-edge same-colour sum, so the
// plain elimination rule stalls; shows that expansion (and, where expansion
// cannot restore progress, the Pareto DP hand-off) still reaches the exact
// optimum, and measures the composite-edge blow-up the paper's O(|E'|)
// bound hides.
#include <iostream>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/exhaustive.hpp"
#include "io/table.hpp"
#include "workload/generator.hpp"

namespace treesat {
namespace {

/// Deep single-colour chains with side sensors maximize the number of
/// monotone cuts per region == composites per expansion.
CruTree chain_with_side_sensors(std::size_t depth, std::size_t colours, Rng& rng) {
  CruTreeBuilder b;
  const CruId root = b.root("root", 1.0);
  for (std::size_t c = 0; c < colours; ++c) {
    CruId at = b.compute(root, "top" + std::to_string(c), rng.uniform_real(1, 5),
                         rng.uniform_real(1, 5), rng.uniform_real(0.1, 2));
    for (std::size_t d = 0; d < depth; ++d) {
      // Appended, not concatenated: GCC 12's -Wrestrict misfires on chained
      // string operator+ under -O2 (GCC bug 105651).
      std::string suffix = std::to_string(c);
      suffix += '_';
      suffix += std::to_string(d);
      b.sensor(at, "side" + suffix, SatelliteId{c}, rng.uniform_real(0.1, 2));
      at = b.compute(at, "n" + suffix, rng.uniform_real(1, 5), rng.uniform_real(1, 5),
                     rng.uniform_real(0.1, 2));
    }
    b.sensor(at, "leaf" + std::to_string(c), SatelliteId{c}, rng.uniform_real(0.1, 2));
  }
  return b.build();
}

void run() {
  bench::banner("E3 / Fig 9", "colour-region expansion: stalls, composites, fallback");

  Table t({"depth", "colours", "cuts/region", "stalled", "regions expanded",
           "composite edges", "|E'|", "fallback", "optimal == exhaustive"});
  Rng rng(2024);
  for (const std::size_t depth : {1u, 2u, 4u, 6u, 8u}) {
    for (const std::size_t colours : {1u, 2u}) {
      const CruTree tree = chain_with_side_sensors(depth, colours, rng);
      const Colouring colouring(tree);

      const SolveReport got = solve(colouring);
      const ColouredSsbStats& stats = *got.stats_as<ColouredSsbStats>();
      const double want = solve(colouring, SolvePlan::exhaustive()).objective_value;
      const std::size_t cuts_per_region =
          count_assignments(colouring, 1u << 24) /
          std::max<std::size_t>(1, colouring.region_roots().size());

      t.add(depth, colours, cuts_per_region, stats.stalled,
            stats.regions_expanded, stats.composite_edges,
            stats.expanded_edge_count, stats.used_fallback,
            std::abs(got.objective_value - want) < 1e-9);
    }
  }
  t.print(std::cout);

  bench::note("lazy vs eager expansion cost on the deepest instance:");
  const CruTree tree = chain_with_side_sensors(8, 2, rng);
  const Colouring colouring(tree);
  Table modes({"mode", "composites", "iterations", "wall us"});
  for (const bool eager : {false, true}) {
    ColouredSsbOptions o;
    o.eager_expansion = eager;
    const SolvePlan plan = SolvePlan::coloured_ssb(o);
    const SolveReport r = solve(colouring, plan);
    const ColouredSsbStats& stats = *r.stats_as<ColouredSsbStats>();
    const double secs = bench::time_run([&] { (void)solve(colouring, plan); }, 10);
    modes.add(eager ? "eager (paper Fig 10)" : "lazy (on stall)",
              stats.composite_edges, stats.iterations, secs * 1e6);
  }
  modes.print(std::cout);
}

}  // namespace
}  // namespace treesat

int main(int argc, char** argv) {
  treesat::bench::BenchJson::init("bench_fig9_expansion", &argc, argv);
  const treesat::Stopwatch watch;
  treesat::run();
  treesat::bench::json().add_row("run", {{"wall_ms", watch.seconds() * 1e3}});
  return treesat::bench::json().write() ? 0 : 1;
}
