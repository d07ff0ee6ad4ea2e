// The batch executor: the worker loop behind solve_batch().
//
// solve_batch_report() solves a span of instances under one plan. Its
// workers claim positions of one largest-tree-first order (LPT: the
// likely stragglers start early instead of being claimed last and
// serializing the tail of the batch) from a single atomic cursor. A batch
// item is a whole solve that spawns no further work, so one shared
// counter is all the scheduling it needs. Three guarantees shape the
// design:
//
//   * Determinism. Results are a pure function of (instances, plan): for
//     seeded plans every instance i solves under
//     derive_instance_seed(plan.seed(), i), so reports are byte-identical
//     regardless of thread count, claim order, or completion order --
//     threads=8 reproduces threads=1 exactly (asserted by
//     tests/batch_executor_test.cpp).
//   * Bounded work. An optional wall-clock deadline is checked between
//     instances (a running solve is never interrupted); instances not yet
//     started when it expires are reported as failures.
//   * Explicit failure. fail_fast (default) stops claiming new instances
//     after the first failure; fail_fast=false finishes the rest. Either
//     way the call itself only throws on caller errors (null instances) --
//     per-instance outcomes land in BatchReport, and solve_batch() rethrows
//     the first failure to keep its all-or-nothing contract.
//
// The knobs travel on the plan (SolvePlan::with_executor, or
// parse_plan("pareto-dp:threads=8,deadline_ms=500")), so string-driven
// harnesses reach the workers without new plumbing.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/solver.hpp"

namespace treesat {

/// The seed instance i solves under when a seeded plan with seed s is
/// batched: splitmix64 of s offset by the golden-ratio stride per index.
/// Decorrelates the per-instance heuristic streams (a batch no longer runs
/// every instance on the literal same seed) while keeping each instance's
/// result reproducible in isolation: solve(instance, plan.with_seed(
/// derive_instance_seed(s, i))) equals batch result i.
[[nodiscard]] std::uint64_t derive_instance_seed(std::uint64_t plan_seed,
                                                 std::uint64_t instance_index);

/// One instance that did not produce a report.
struct BatchFailure {
  std::size_t index;      ///< instance index within the batch
  std::string message;    ///< what went wrong (exception text, deadline, ...)
  /// The instance's exception; null when it was never started (deadline,
  /// or a fail-fast abort after an earlier failure).
  std::exception_ptr error;
};

/// Result of one batch run: per-instance reports plus the aggregate
/// statistics a scheduling layer wants (wall time, per-method counts, the
/// straggler).
struct BatchReport {
  /// results[i] belongs to *instances[i]; disengaged when instance i failed
  /// or was never started (see failures).
  std::vector<std::optional<SolveReport>> results;
  /// Failed / unstarted instances, ascending by index. Empty == complete.
  std::vector<BatchFailure> failures;

  double wall_seconds = 0.0;        ///< whole-batch wall time
  std::size_t threads_used = 1;     ///< workers that ran, the calling thread included
  /// Solves per method that ran, indexed by SolveMethod (automatic plans
  /// spread across the methods resolution picked).
  std::array<std::size_t, kSolveMethodCount> method_counts{};
  double total_solve_seconds = 0.0; ///< sum of per-instance wall times
  double slowest_seconds = 0.0;     ///< the straggler's wall time; 0 when none solved
  /// The straggler's instance index; disengaged when no instance solved
  /// (an all-failed batch has no straggler -- callers used to misreport
  /// instance 0 as the slow one of a batch that did no work).
  std::optional<std::size_t> slowest_index;

  [[nodiscard]] bool complete() const { return failures.empty(); }
  [[nodiscard]] std::size_t solved() const { return results.size() - failures.size(); }
  [[nodiscard]] std::size_t count_of(SolveMethod method) const {
    return method_counts[static_cast<std::size_t>(method)];
  }

  /// Re-throws the first failure by instance index: its own exception when
  /// it has one, otherwise ResourceLimit describing the unstarted instance.
  /// No-op when complete.
  void rethrow_if_failed() const;

  /// Moves the reports out as the plain vector solve_batch returns.
  /// Calls rethrow_if_failed() first, so it only succeeds when complete.
  [[nodiscard]] std::vector<SolveReport> take_reports();
};

/// Solves every instance with `plan` under plan.executor()'s threads,
/// deadline and fail-fast knobs (seeded plans get per-instance derived
/// seeds). This is what solve_batch() routes through; call it directly when
/// the aggregate statistics (or partial results under fail_fast=false)
/// matter. Throws InvalidArgument up front when any instance is null -- the
/// whole span is validated before any work starts.
[[nodiscard]] BatchReport solve_batch_report(std::span<const Colouring* const> instances,
                                             const SolvePlan& plan = {});

}  // namespace treesat
