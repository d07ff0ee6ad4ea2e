// treesat quickstart: build a small context-reasoning tree, describe the
// platform, and ask for the delay-optimal assignment.
//
//   $ ./example_quickstart
//
// Walks the full public API surface in ~70 lines: ProfiledTree (workload),
// HostSatelliteSystem (platform), lower() (analytical benchmarking),
// Colouring (paper §5.1), SolvePlan + solve() (paper §5.4) with per-method
// options, the SolveReport stats, and the method registry.
#include <iostream>

#include "core/registry.hpp"
#include "core/solver.hpp"
#include "platform/profiled_tree.hpp"

int main() {
  using namespace treesat;

  // Platform: a phone-class host and two sensor boxes on slow uplinks.
  HostSatelliteSystem platform("phone", /*host_speed_ops_per_s=*/200e6);
  const SatelliteId box_a = platform.add_satellite(
      SatelliteSpec{"box-a", /*speed=*/50e6, LinkSpec{/*latency=*/0.02, /*bw=*/100e3}});
  const SatelliteId box_b = platform.add_satellite(
      SatelliteSpec{"box-b", /*speed=*/50e6, LinkSpec{0.02, 100e3}});

  // Workload: two per-sensor pipelines fused at the root. Operation counts
  // are per frame; frame sizes in bytes.
  ProfiledTree workload;
  const CruId fuse = workload.add_root("fuse", 3e6, 64);
  const CruId feat_a = workload.add_compute(fuse, "features_a", 10e6, 512);
  workload.add_sensor(feat_a, "raw_a", box_a, /*raw_frame_bytes=*/24000);
  const CruId feat_b = workload.add_compute(fuse, "features_b", 8e6, 512);
  workload.add_sensor(feat_b, "raw_b", box_b, 18000);

  // "Analytical benchmarking" (paper §5.3): ops and bytes become the h/s/c
  // constants of the optimization model.
  const CruTree tree = workload.lower(platform);

  // Colour propagation (paper §5.1): which CRUs may leave the host at all?
  const Colouring colouring(tree);
  std::cout << "conflict CRUs (host-only): ";
  for (const CruId v : colouring.conflict_nodes()) {
    std::cout << tree.node(v).name << ' ';
  }
  std::cout << "\n";

  // A SolvePlan is one method plus exactly its options. The default plan is
  // the paper's optimizer (adapted coloured SSB search, §5.4); here we also
  // cap the Fig 9 expansion step to show a per-algorithm knob.
  ColouredSsbOptions options;
  options.expansion_cap_per_region = 4096;
  const SolveReport best = solve(colouring, SolvePlan::coloured_ssb(options));
  std::cout << "optimal assignment: " << best.assignment << "\n";
  std::cout << "host time S        = " << best.delay.host_time * 1e3 << " ms\n";
  std::cout << "bottleneck B       = " << best.delay.bottleneck * 1e3 << " ms\n";
  std::cout << "end-to-end delay   = " << best.objective_value * 1e3 << " ms\n";
  std::cout << "stall handed to the DP?   "
            << (best.stats_as<ColouredSsbStats>()->used_fallback ? "yes" : "no") << "\n";

  // Not sure which method fits your instance? Let the plan decide, or parse
  // a spec string ("method:key=value") straight from a config file.
  const SolveReport picked = solve(colouring, SolvePlan::automatic());
  std::cout << "automatic() picked: " << picked.method_label() << "\n";
  const SolveReport tuned = solve(colouring, parse_plan("annealing:steps=5000,seed=7"));
  std::cout << "annealing found    = " << tuned.objective_value * 1e3 << " ms\n";

  // Compare against the naive "ship everything to the host" deployment.
  const Assignment naive = Assignment::all_on_host(colouring);
  std::cout << "all-on-host delay  = " << naive.delay().end_to_end() * 1e3 << " ms\n";
  return 0;
}
