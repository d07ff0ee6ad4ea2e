// Experiment E12 (roadmap: batch throughput): solve_batch's workers,
// which claim instances largest first from one atomic cursor, measured at
// 1/2/4/8 threads on three 64-instance batches. Reports wall time, speedup
// over the single-threaded run, the straggler, and -- the executor's core
// guarantee -- whether every thread count reproduced the threads=1 reports
// byte for byte. The identity gate is unconditional.
//
// The scaling gate (speedup_vs_1 > 1 at threads=2, on hosts with >= 2
// hardware threads; reported as skipped on 1-core hosts) rides on the
// heavy batch of 600-node trees, which takes ~0.3 s at one thread on a
// 4-thread Xeon. The 120-node synthetic batch used to carry it, but since
// the Minkowski merge began streaming its shorter operand that batch takes
// only 5-9 ms at one thread. A busy 4-thread host shows preemption gaps of
// ~16 ms per thread, and a bare cursor loop over the same 64 solves, with
// no executor at all, also reads ~1.0x at that size: a 5-9 ms batch
// measures the host's scheduler, not the batch executor. The 120-node and
// scenario batches stay as ungated rows so their ~1.0x stays visible.
#include <iostream>
#include <deque>
#include <sstream>
#include <thread>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "io/table.hpp"
#include "workload/generator.hpp"
#include "workload/scenarios.hpp"

namespace treesat {
namespace {

struct Owned {
  std::deque<CruTree> trees;
  std::deque<Colouring> colourings;
  std::vector<const Colouring*> instances;

  void add(CruTree tree) {
    trees.push_back(std::move(tree));
    colourings.emplace_back(trees.back());
    instances.push_back(&colourings.back());
  }
};

/// 64 instances cycling the scenario library: the epilepsy workload plus
/// SNMP probe ladders of growing width.
Owned scenario_batch() {
  Owned batch;
  for (std::size_t i = 0; i < 64; ++i) {
    if (i % 8 == 0) {
      const Scenario sc = epilepsy_scenario();
      batch.add(sc.workload.lower(sc.platform));
    } else {
      const Scenario sc = snmp_scenario(2 + (i % 8) * 3);
      batch.add(sc.workload.lower(sc.platform));
    }
  }
  return batch;
}

/// 64 random trees of `compute_nodes` nodes each. Solved with the Pareto
/// DP -- the scalable exact method, whose cost is stable across draws (the
/// coloured SSB search can hit its fallback regime on unlucky large
/// instances, which would benchmark the fallback, not the executor).
Owned synthetic_batch(std::size_t compute_nodes) {
  Owned batch;
  Rng rng(0xBA7C);
  for (std::size_t i = 0; i < 64; ++i) {
    TreeGenOptions o;
    o.compute_nodes = compute_nodes;
    o.satellites = 4;
    o.policy = SensorPolicy::kScattered;
    batch.add(random_tree(rng, o));
  }
  return batch;
}

std::string batch_fingerprint(const BatchReport& report) {
  std::ostringstream oss;
  oss << std::hexfloat;
  for (const std::optional<SolveReport>& r : report.results) {
    oss << r->objective_value << '|' << r->assignment << '|' << method_name(r->method)
        << '\n';
  }
  return oss.str();
}

struct SweepResult {
  bool identical = true;     ///< every thread count reproduced threads=1
  double speedup2 = 0.0;     ///< speedup_vs_1 at threads=2
};

/// Sweeps one batch over 1/2/4/8 threads. `identical` is the executor's
/// core guarantee and the stable half of the bench_diff gate; the heavy
/// batch's `speedup2` feeds the scaling gate on multi-core hosts (per-row
/// thread speedups stay informational in bench_diff: a 1-core CI box
/// cannot scale).
[[nodiscard]] SweepResult sweep(const char* name, const Owned& batch,
                                const SolvePlan& base) {
  Table t({"threads", "batch wall ms", "speedup vs 1", "straggler ms",
           "sum of solves ms", "identical reports"});
  SweepResult result;
  double base_wall = 0.0;
  std::string reference;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SolvePlan plan = base;
    plan.with_executor({.threads = threads});
    // Best of 3: the executor is stateless between runs, so repeats are
    // honest and the minimum discards scheduler noise.
    double wall = 1e100;
    BatchReport report;
    for (int rep = 0; rep < 3; ++rep) {
      BatchReport r = solve_batch_report(batch.instances, plan);
      r.rethrow_if_failed();  // batch_fingerprint reads every result
      if (r.wall_seconds < wall) {
        wall = r.wall_seconds;
        report = std::move(r);
      }
    }
    const std::string prints = batch_fingerprint(report);
    if (threads == 1) {
      base_wall = wall;
      reference = prints;
    }
    if (threads == 2) result.speedup2 = base_wall / wall;
    result.identical = result.identical && prints == reference;
    t.add(threads, wall * 1e3, base_wall / wall, report.slowest_seconds * 1e3,
          report.total_solve_seconds * 1e3, prints == reference ? "yes" : "NO");
    bench::json().add_row(std::string(name) + " threads=" + std::to_string(threads),
                          {{"instances", static_cast<double>(batch.instances.size())},
                           {"threads", static_cast<double>(threads)},
                           {"wall_ms", wall * 1e3},
                           {"speedup_vs_1", base_wall / wall},
                           {"straggler_ms", report.slowest_seconds * 1e3}});
  }
  std::cout << "\n-- " << name << " (" << batch.instances.size() << " instances, "
            << bench::method_label(base.method()) << ") --\n";
  t.print(std::cout);
  return result;
}

[[nodiscard]] bool run() {
  bench::banner("E12 / batching", "solve_batch scaling (atomic cursor, largest first)");
  const SweepResult scenario = sweep("scenario batch", scenario_batch(), SolvePlan{});
  const SweepResult synthetic =
      sweep("synthetic batch", synthetic_batch(120), SolvePlan::pareto_dp());
  const SweepResult heavy =
      sweep("heavy synthetic batch", synthetic_batch(600), SolvePlan::pareto_dp());
  const bool identical = scenario.identical && synthetic.identical && heavy.identical;
  if (!identical) {
    std::cerr << "\nFAIL: some thread count diverged from the threads=1 reports\n";
  }
  bench::note("speedup tracks the host's core count once a batch takes well over one");
  bench::note("preemption gap (~16 ms on a busy 4-thread Xeon) at one thread; the");
  bench::note("scenario and 120-node batches do not, so they read ~1.0x. 'identical");
  bench::note("reports' must always be yes -- the executor's per-instance seed");
  bench::note("derivation makes thread count, claim order and completion order");
  bench::note("invisible in the results.");
  // The machine-independent half of the bench_diff gate: 1.0 means every
  // thread count reproduced the threads=1 reports byte for byte.
  bench::json().set("identity_ratio", identical ? 1.0 : 0.0);

  // The scaling gate rides on the heavy batch (see the header comment) and
  // only where scaling is physically possible.
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  bench::json().set("speedup_threads2", heavy.speedup2);
  bool scaling_ok = true;
  if (hw >= 2) {
    scaling_ok = heavy.speedup2 > 1.0;
    bench::json().set("scaling_gate", std::string(scaling_ok ? "passed" : "failed"));
    if (!scaling_ok) {
      std::cerr << "\nFAIL: heavy synthetic batch speedup_vs_1 at threads=2 is "
                << heavy.speedup2 << " (<= 1) on a " << hw << "-thread host\n";
    }
  } else {
    bench::note("scaling gate skipped: 1 hardware thread (speedup cannot exceed 1)");
    bench::json().set("scaling_gate", std::string("skipped: <2 hardware threads"));
  }
  return identical && scaling_ok;
}

}  // namespace
}  // namespace treesat

int main(int argc, char** argv) {
  treesat::bench::BenchJson::init("bench_batch_scaling", &argc, argv);
  // run() prints a specific FAIL line for whichever gate tripped
  // (identity divergence or the multi-core scaling floor).
  const bool ok = treesat::run();
  const bool wrote = treesat::bench::json().write();
  return ok && wrote ? 0 : 1;
}
