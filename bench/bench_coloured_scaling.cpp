// Experiment E5 (paper §5.4/§6 claim): the adapted coloured SSB search runs
// in O(|E'|) on the expanded assignment graph. We scale random CRU trees,
// report |E'|, expansion/fallback rates (the cost the paper's bound hides),
// and compare wall time against the Pareto DP and branch-and-bound across
// the same instances. Each (policy, size) point's trials run as one
// solve_batch on the batch executor (threads=auto); the per-trial
// search statistics come from the batch's reports and B&B's node-cap DNFs
// from the per-instance failures of a fail_fast=false batch.
#include <benchmark/benchmark.h>

#include <deque>
#include <iostream>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/assignment_graph.hpp"
#include "core/executor.hpp"
#include "io/table.hpp"
#include "workload/generator.hpp"

namespace treesat {
namespace {

CruTree make_tree(std::size_t nodes, std::size_t satellites, SensorPolicy policy,
                  std::uint64_t seed) {
  Rng rng(seed);
  TreeGenOptions o;
  o.compute_nodes = nodes;
  o.satellites = satellites;
  o.policy = policy;
  return random_tree(rng, o);
}

void print_series() {
  bench::banner("E5 / §5.4", "coloured SSB scaling and the expansion blow-up");
  Table t({"policy", "CRUs", "sats", "|E|", "|E'|", "stall%", "fallback%", "ssb ms",
           "paretoDP ms", "B&B ms"});
  for (const SensorPolicy policy : {SensorPolicy::kClustered, SensorPolicy::kScattered}) {
    // Scattered pinning is the adversarial regime (multi-region colours
    // stall the search and the Pareto DP finishes it); its grid stops
    // earlier.
    const std::vector<std::size_t> sizes = policy == SensorPolicy::kClustered
                                               ? std::vector<std::size_t>{16, 32, 64, 128, 256}
                                               : std::vector<std::size_t>{16, 32, 64, 96};
    for (const std::size_t nodes : sizes) {
      const std::size_t sats = 4;
      const int trials = nodes >= 96 ? 3 : 10;
      const int reps = nodes >= 96 ? 1 : 3;

      std::deque<CruTree> trees;
      std::deque<Colouring> colourings;
      std::vector<const Colouring*> instances;
      double e_before = 0;
      for (int trial = 0; trial < trials; ++trial) {
        trees.push_back(make_tree(nodes, sats, policy,
                                  5000 + nodes * 31 + static_cast<std::size_t>(trial)));
        colourings.emplace_back(trees.back());
        instances.push_back(&colourings.back());
        e_before += static_cast<double>(
            AssignmentGraph(colourings.back()).graph().edge_count());
      }

      const ExecutorOptions pool{.threads = 0};
      // Mean per-instance solve time: best-of-reps over the batch's summed
      // per-instance walls, so the column stays comparable with the B&B
      // column and with sequential runs no matter how many workers ran.
      const auto mean_solve_ms = [&](SolvePlan plan) {
        plan.with_executor(pool);
        double best = 1e100;
        for (int rep = 0; rep < reps; ++rep) {
          BatchReport report = solve_batch_report(instances, plan);
          report.rethrow_if_failed();
          best = std::min(best, report.total_solve_seconds);
        }
        return best * 1e3 / trials;
      };

      SolvePlan ssb_plan;  // coloured-ssb defaults
      ssb_plan.with_executor(pool);
      BatchReport ssb = solve_batch_report(instances, ssb_plan);
      ssb.rethrow_if_failed();
      double e_after = 0;
      int stalls = 0, fallbacks = 0;
      for (const std::optional<SolveReport>& r : ssb.results) {
        const ColouredSsbStats& stats = *r->stats_as<ColouredSsbStats>();
        e_after += static_cast<double>(stats.expanded_edge_count);
        stalls += stats.stalled ? 1 : 0;
        fallbacks += stats.used_fallback ? 1 : 0;
      }
      const double ssb_ms = mean_solve_ms(SolvePlan{});
      const double dp_ms = mean_solve_ms(SolvePlan::pareto_dp());

      // B&B is worst-case exponential: run it only where it mostly
      // finishes under a modest node cap; capped instances surface as
      // failures of a fail_fast=false batch and count as DNFs.
      double bb_ms = 0;
      int bb_done = 0, bb_dnf = 0;
      if (nodes <= 64) {
        BranchBoundOptions bopt;
        bopt.node_cap = std::size_t{1} << 21;
        SolvePlan bb_plan = SolvePlan::branch_bound(bopt);
        ExecutorOptions tolerant = pool;
        tolerant.fail_fast = false;
        bb_plan.with_executor(tolerant);
        const BatchReport bb = solve_batch_report(instances, bb_plan);
        bb_dnf = static_cast<int>(bb.failures.size());
        for (const std::optional<SolveReport>& r : bb.results) {
          if (!r.has_value()) continue;
          bb_ms += r->wall_seconds * 1e3;
          ++bb_done;
        }
      }
      t.add(policy == SensorPolicy::kClustered ? "clustered" : "scattered", nodes, sats,
            e_before / trials, e_after / trials, 100.0 * stalls / trials,
            100.0 * fallbacks / trials, ssb_ms, dp_ms,
            bb_done > 0 ? Table::format_cell(bb_ms / bb_done) +
                              (bb_dnf > 0 ? " (" + std::to_string(bb_dnf) + " DNF)"
                                          : "")
                        : std::string("DNF"));
    }
  }
  t.print(std::cout);
  bench::note("clustered pinning (big monochromatic regions) is where expansion pays;");
  bench::note("scattered pinning forces conflicts high in the tree, shrinking |E'|.");
  bench::note("wall times are end-to-end facade solves: the ssb column includes the");
  bench::note("assignment-graph construction its method needs (the DP never builds one).");
  bench::note("each point runs as one solve_batch on the batch executor (threads=auto);");
  bench::note("ssb/dp/B&B columns are mean per-instance solve time, not batch wall.");
}

void BM_ColouredSsb(benchmark::State& state) {
  const std::size_t nodes = static_cast<std::size_t>(state.range(0));
  const CruTree tree = make_tree(nodes, 4, SensorPolicy::kClustered, 777 + nodes);
  const Colouring colouring(tree);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve(colouring).objective_value);
  }
}
BENCHMARK(BM_ColouredSsb)->Arg(16)->Arg(64)->Arg(256);

void BM_ParetoDp(benchmark::State& state) {
  const std::size_t nodes = static_cast<std::size_t>(state.range(0));
  const CruTree tree = make_tree(nodes, 4, SensorPolicy::kClustered, 777 + nodes);
  const Colouring colouring(tree);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve(colouring, SolvePlan::pareto_dp()).objective_value);
  }
}
BENCHMARK(BM_ParetoDp)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
}  // namespace treesat

int main(int argc, char** argv) {
  // --json is ours; strip it before google-benchmark sees the flags.
  treesat::bench::BenchJson::init("bench_coloured_scaling", &argc, argv);
  const treesat::Stopwatch watch;
  treesat::print_series();
  treesat::bench::json().add_row("print_series", {{"wall_ms", watch.seconds() * 1e3}});
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return treesat::bench::json().write() ? 0 : 1;
}
