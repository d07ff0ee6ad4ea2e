// The paper's second application domain (§3): SNMP-style network
// monitoring, where K probe boxes pre-aggregate device counters for a
// central correlator.
//
//   $ ./example_snmp_monitoring [max_probes]
//
// Scales the probe count and shows how the optimal split, the delay, and
// the advantage over naive deployments evolve -- plus how the solver's own
// cost grows (the assignment graph stays linear in the tree). The whole
// probe ladder is materialized up front and solved as ONE batch by
// solve_batch_report (threads=auto) -- the shape a monitoring
// deployment with many independent sites re-optimizes in. The closing
// table walks the *method registry*: every registered solve method runs on
// the largest instance through the same plan facade.
#include <cstdlib>
#include <deque>
#include <iostream>

#include "core/executor.hpp"
#include "core/registry.hpp"
#include "io/table.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace treesat;

  std::size_t max_probes = 16;
  if (argc > 1) max_probes = static_cast<std::size_t>(std::atoi(argv[1]));

  // One instance per ladder rung. Deques, not vectors: colourings hold
  // references into their tree, so the storage must never relocate.
  std::vector<std::size_t> probe_counts;
  std::deque<CruTree> trees;
  std::deque<Colouring> colourings;
  std::vector<const Colouring*> instances;
  for (std::size_t probes = 1; probes <= max_probes; probes *= 2) {
    probe_counts.push_back(probes);
    const Scenario scenario = snmp_scenario(probes);
    trees.push_back(scenario.workload.lower(scenario.platform));
    colourings.emplace_back(trees.back());
    instances.push_back(&colourings.back());
  }

  SolvePlan plan;  // the paper's coloured SSB search
  plan.with_executor({.threads = 0});
  BatchReport batch = solve_batch_report(instances, plan);
  const std::vector<SolveReport> reports = batch.take_reports();

  Table t({"probes", "CRUs", "optimal [ms]", "all-on-server [ms]", "all-on-probes [ms]",
           "speedup vs naive", "CRUs offloaded", "solve [ms]"});
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const SolveReport& optimal = reports[i];
    const Colouring& colouring = colourings[i];
    const double naive = Assignment::all_on_host(colouring).delay().end_to_end();
    const double boxes = Assignment::topmost(colouring).delay().end_to_end();
    t.add(probe_counts[i], trees[i].size(), optimal.delay.end_to_end() * 1e3, naive * 1e3,
          boxes * 1e3, naive / optimal.delay.end_to_end(),
          optimal.assignment.satellite_node_count(), optimal.wall_seconds * 1e3);
  }
  t.print(std::cout);
  std::cout << "\nbatch: " << reports.size() << " instances on " << batch.threads_used
            << " thread(s) in " << batch.wall_seconds * 1e3 << " ms";
  if (batch.slowest_index.has_value()) {
    std::cout << " (straggler: instance " << *batch.slowest_index << ", "
              << batch.slowest_seconds * 1e3 << " ms)";
  }
  std::cout << "\n";

  std::cout << "\nper-method agreement on the largest instance:\n";
  const Scenario scenario = snmp_scenario(max_probes);
  const CruTree tree = scenario.workload.lower(scenario.platform);
  const Colouring colouring(tree);
  Table m({"method", "paper", "delay [ms]", "exact", "wall ms"});
  for (const MethodInfo& info : method_registry()) {
    if (info.method == SolveMethod::kExhaustive) continue;  // blows up at this size
    const SolveReport s = solve(colouring, parse_plan(info.name));
    m.add(info.name, info.paper_ref, s.objective_value * 1e3, s.exact,
          s.wall_seconds * 1e3);
  }
  m.print(std::cout);
  return 0;
}
