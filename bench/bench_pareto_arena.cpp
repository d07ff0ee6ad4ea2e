// E-ARENA: the allocation-free Pareto-DP core against the pre-arena
// reference engine (the oracle in tests/pareto_reference.hpp).
//
// Three claims, all enforced (exit 1 on violation):
//   1. Correctness: the arena engine returns byte-identical optima to the
//      reference -- same objective bits, same cut node ids.
//   2. Cold speed: on large clustered instances the arena engine is >= 3x
//      faster than the reference. This is the win of merge-based Minkowski
//      (dominated product points never materialize) plus backpointer cuts
//      (no per-point cut vector copies).
//   3. Kernel: the branch-free SIMD Minkowski merge the engine runs is
//      >= 1.3x geomean faster than the scalar oracle merge on the
//      frontier-dominated full-mode cases, timed on each case's
//      cross-region folds (every colour's region frontiers folded left to
//      right, the chain that dominates a solve) with byte-identical folded
//      frontiers (gate enforced in full mode; smoke sizes only report the
//      ratio, which ci.sh gates against the committed smoke baseline via
//      bench_diff).
//
// --json <path> mirrors every number into BENCH_pareto_arena.json (the
// first point of the repo's perf trajectory; bench/baselines/ holds the
// committed baselines bench_diff gates against). --smoke shrinks the
// instances for the ci.sh TREESAT_BENCH stage.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "../tests/pareto_reference.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/pareto_kernel.hpp"
#include "io/table.hpp"
#include "platform/simd.hpp"
#include "workload/generator.hpp"

namespace treesat {
namespace {

struct Case {
  std::string label;
  std::size_t compute_nodes;
  std::size_t satellites;
  std::uint64_t seed;
};

/// One colour's region frontiers as structure-of-arrays inputs.
struct FoldInput {
  std::vector<std::vector<double>> load;
  std::vector<std::vector<double>> host;
};

std::vector<FoldInput> fold_inputs(const Colouring& colouring) {
  std::vector<FoldInput> out;
  for (std::size_t c = 0; c < colouring.tree().satellite_count(); ++c) {
    FoldInput in;
    for (const CruId r : colouring.regions_of(SatelliteId{c})) {
      in.load.emplace_back();
      in.host.emplace_back();
      for (const ParetoPoint& p : region_frontier(colouring, r, std::size_t{1} << 20)) {
        in.load.back().push_back(p.load);
        in.host.back().push_back(p.host);
      }
    }
    if (!in.load.empty()) out.push_back(std::move(in));
  }
  return out;
}

/// Folds every colour's region frontiers left to right through `kernel`;
/// returns the folded (load, host) values, concatenated in colour order.
template <typename Kernel>
std::vector<double> fold_all(Kernel kernel, const std::vector<FoldInput>& inputs) {
  std::vector<double> folded;
  pareto_internal::MergeCounters counters;
  for (const FoldInput& in : inputs) {
    std::vector<double> load = in.load[0];
    std::vector<double> host = in.host[0];
    std::vector<double> next_load;
    std::vector<double> next_host;
    for (std::size_t k = 1; k < in.load.size(); ++k) {
      next_load.clear();
      next_host.clear();
      kernel(load.data(), host.data(), load.size(), in.load[k].data(), in.host[k].data(),
             in.load[k].size(), std::size_t{1} << 20, counters,
             [&](std::uint32_t, std::uint32_t, double l, double h) {
               next_load.push_back(l);
               next_host.push_back(h);
             });
      load.swap(next_load);
      host.swap(next_host);
    }
    folded.insert(folded.end(), load.begin(), load.end());
    folded.insert(folded.end(), host.begin(), host.end());
  }
  return folded;
}

int run(bool smoke) {
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  bench::banner("E-ARENA", "arena Pareto-DP vs pre-arena reference engine");
  // Hardware threads and the kernel ISA go into the --json host object.
  bench::note("hardware threads: " + std::to_string(hw));
  bench::json().set("mode", smoke ? std::string("smoke") : std::string("full"));
  bench::note(std::string("simd isa: ") + simd::active_isa());

  std::vector<Case> cases;
  if (smoke) {
    cases = {{"clustered-200x6", 200, 6, 11}, {"clustered-400x8", 400, 8, 12}};
  } else {
    cases = {{"clustered-400x8", 400, 8, 12},
             {"clustered-800x10", 800, 10, 13},
             {"clustered-1400x12", 1400, 12, 14}};
  }
  const int reps = smoke ? 3 : 5;

  Table t({"instance", "nodes", "regions", "ref ms", "arena ms", "speedup", "scalar fold ms",
           "simd fold ms", "kernel x", "peak frontier", "prune %"});

  double ref_total = 0.0;
  double arena_total = 0.0;
  double kernel_log_sum = 0.0;
  bool identical = true;

  for (const Case& c : cases) {
    Rng rng(c.seed);
    TreeGenOptions gen;
    gen.compute_nodes = c.compute_nodes;
    gen.satellites = c.satellites;
    gen.policy = SensorPolicy::kClustered;
    const CruTree tree = random_tree(rng, gen);
    const Colouring colouring(tree);

    const std::vector<FoldInput> folds = fold_inputs(colouring);

    const double ref_s =
        bench::time_run([&] { static_cast<void>(reference::solve(colouring)); }, reps);
    const double arena_s =
        bench::time_run([&] { static_cast<void>(pareto_dp_solve(colouring)); }, reps);
    const double scalar_fold_s = bench::time_run(
        [&] { static_cast<void>(fold_all(reference::ScalarKernel{}, folds)); }, reps);
    const double simd_fold_s = bench::time_run(
        [&] { static_cast<void>(fold_all(reference::SimdKernel{}, folds)); }, reps);

    const ParetoDpResult reference = reference::solve(colouring);
    const ParetoDpResult arena = pareto_dp_solve(colouring);

    if (arena.objective != reference.objective ||
        arena.assignment.cut_nodes() != reference.assignment.cut_nodes()) {
      std::cerr << "IDENTITY FAILURE: " << c.label
                << ": arena optimum differs from the reference engine\n";
      identical = false;
    }
    if (fold_all(reference::SimdKernel{}, folds) != fold_all(reference::ScalarKernel{}, folds)) {
      std::cerr << "IDENTITY FAILURE: " << c.label
                << ": simd folds differ from the scalar oracle's\n";
      identical = false;
    }

    ref_total += ref_s;
    arena_total += arena_s;
    const double kernel_x = scalar_fold_s / simd_fold_s;
    kernel_log_sum += std::log(kernel_x);

    const std::size_t regions = colouring.region_roots().size();
    const double prune = 100.0 * arena.stats.prune_ratio();
    t.add(c.label, tree.size(), regions, ref_s * 1e3, arena_s * 1e3, ref_s / arena_s,
          scalar_fold_s * 1e3, simd_fold_s * 1e3, kernel_x, arena.stats.peak_frontier, prune);
    bench::json().add_row(
        c.label,
        {{"nodes", static_cast<double>(tree.size())},
         {"regions", static_cast<double>(regions)},
         {"ref_ms", ref_s * 1e3},
         {"arena_ms", arena_s * 1e3},
         {"scalar_fold_ms", scalar_fold_s * 1e3},
         {"simd_fold_ms", simd_fold_s * 1e3},
         {"speedup_vs_reference", ref_s / arena_s},
         {"kernel_speedup", kernel_x},
         {"peak_frontier", static_cast<double>(arena.stats.peak_frontier)},
         {"arena_bytes", static_cast<double>(arena.stats.arena_bytes)},
         {"prune_ratio", arena.stats.prune_ratio()}});
  }
  t.print(std::cout);

  const double speedup = ref_total / arena_total;
  const double kernel_geomean = std::exp(kernel_log_sum / static_cast<double>(cases.size()));
  bench::note("aggregate speedup vs reference: " + std::to_string(speedup) + "x (gate: 3x)");
  bench::note("kernel simd-over-scalar geomean: " + std::to_string(kernel_geomean) +
              "x (gate: 1.3x, full mode)");
  bench::json().set("speedup_vs_reference", speedup);
  bench::json().set("kernel_speedup_geomean", kernel_geomean);

  bool ok = identical;
  if (!identical) std::cerr << "FAILED: byte-identity violated\n";
  if (speedup < 3.0) {
    std::cerr << "FAILED: arena engine only " << speedup << "x over the reference (< 3x)\n";
    ok = false;
  }
  if (!smoke && kernel_geomean < 1.3) {
    std::cerr << "FAILED: simd kernel only " << kernel_geomean
              << "x geomean over scalar (< 1.3x)\n";
    ok = false;
  }
  if (ok) bench::note("all gates passed");
  if (!bench::json().write()) ok = false;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace treesat

int main(int argc, char** argv) {
  treesat::bench::BenchJson::init("bench_pareto_arena", &argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  return treesat::run(smoke);
}
