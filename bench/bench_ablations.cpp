// Ablation experiments for the coloured SSB search's design decisions:
//   A. elimination threshold `>=` vs the prose's strict `>` (Fig 4 itself
//      shows the paper computes with `>=`: the <4,20> edge dies at 20);
//   B. lazy expansion vs eager expansion vs disabling expansion entirely
//      (expansion-cap 1), where every stall expansion cannot clear hands
//      the solve to the Pareto DP -- same optimum, different work;
//   C. DAG relaxation vs general Dijkstra for the assignment graph's
//      min-S path.
#include <iostream>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/assignment_graph.hpp"
#include "core/ssb_search.hpp"
#include "graph/shortest_path.hpp"
#include "io/table.hpp"
#include "workload/generator.hpp"

namespace treesat {
namespace {

void ablation_elimination() {
  bench::banner("ABL-A", "elimination threshold: beta >= B(P) vs strict >");
  // Strict '>' stalls whenever the min-S path owns the unique maximum beta.
  // Count how often that happens on random DWGs (our '>=' never stalls).
  Rng rng(777);
  std::size_t strict_would_stall = 0;
  const std::size_t trials = 200;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    DwgGenOptions o;
    o.vertices = 10;
    o.edges = 24;
    const Dwg g = random_dwg(rng, o);
    // One iteration by hand: min-S path, then check whether any alive edge
    // has beta STRICTLY above B(P_1).
    const auto p = min_sum_path(g, VertexId{0u}, VertexId{9u}, g.full_mask());
    if (!p) continue;
    const double b = path_bottleneck_max(g, p->edges);
    bool any_strict = false;
    for (const DwgEdge& e : g.edges()) {
      if (e.beta > b) any_strict = true;
    }
    if (!any_strict) ++strict_would_stall;
  }
  Table t({"rule", "first-iteration stalls (of 200 random DWGs)"});
  t.add("beta >  B(P)  (paper prose)", strict_would_stall);
  t.add("beta >= B(P)  (paper's Fig 4 numbers; ours)", std::size_t{0});
  t.print(std::cout);
}

void ablation_expansion() {
  bench::banner("ABL-B", "expansion policies reach the same optimum at different cost");
  Table t({"CRUs", "policy", "iterations", "composites", "DP finished", "wall ms"});
  Rng rng(888);
  for (const std::size_t nodes : {24u, 48u, 96u}) {
    TreeGenOptions o;
    o.compute_nodes = nodes;
    o.satellites = 3;
    o.policy = SensorPolicy::kScattered;  // multi-region colours galore
    const CruTree tree = random_tree(rng, o);
    const Colouring colouring(tree);

    struct Policy {
      const char* name;
      const char* spec;  // registry spec of the coloured-ssb variant
    };
    double reference = -1.0;
    for (const Policy& policy :
         {Policy{"lazy expansion", "coloured-ssb"},
          Policy{"eager expansion", "coloured-ssb:eager_expansion=true"},
          Policy{"no expansion", "coloured-ssb:expansion_cap=1"}}) {
      const SolvePlan plan = parse_plan(policy.spec);
      const SolveReport r = solve(colouring, plan);
      if (reference < 0) reference = r.objective_value;
      TS_CHECK(std::abs(r.objective_value - reference) < 1e-9,
               "ablation: optima disagree");
      const double ms =
          bench::time_run([&] { (void)solve(colouring, plan); }, 3) * 1e3;
      const ColouredSsbStats& stats = *r.stats_as<ColouredSsbStats>();
      t.add(nodes, policy.name, stats.iterations, stats.composite_edges,
            stats.used_fallback, ms);
    }
  }
  t.print(std::cout);
}

void ablation_shortest_path() {
  bench::banner("ABL-C", "DAG relaxation vs Dijkstra on assignment graphs");
  Table t({"CRUs", "dag relax us", "dijkstra us"});
  Rng rng(999);
  for (const std::size_t nodes : {64u, 256u, 1024u}) {
    TreeGenOptions o;
    o.compute_nodes = nodes;
    o.satellites = 4;
    o.policy = SensorPolicy::kClustered;
    const CruTree tree = random_tree(rng, o);
    const Colouring colouring(tree);
    const AssignmentGraph ag(colouring);
    const EdgeMask mask = ag.graph().full_mask();
    const double dag_us =
        bench::time_run(
            [&] { (void)min_sum_path_dag(ag.graph(), ag.source(), ag.target(), mask); }, 20) *
        1e6;
    const double dij_us =
        bench::time_run(
            [&] { (void)min_sum_path(ag.graph(), ag.source(), ag.target(), mask); }, 20) *
        1e6;
    t.add(nodes, dag_us, dij_us);
  }
  t.print(std::cout);
}

}  // namespace
}  // namespace treesat

int main(int argc, char** argv) {
  treesat::bench::BenchJson::init("bench_ablations", &argc, argv);
  const auto timed = [](const char* label, void (*section)()) {
    const treesat::Stopwatch watch;
    section();
    treesat::bench::json().add_row(label, {{"wall_ms", watch.seconds() * 1e3}});
  };
  timed("elimination", treesat::ablation_elimination);
  timed("expansion", treesat::ablation_expansion);
  timed("shortest_path", treesat::ablation_shortest_path);
  return treesat::bench::json().write() ? 0 : 1;
}
