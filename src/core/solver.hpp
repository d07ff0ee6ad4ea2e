// Unified solver facade.
//
// Downstream users (examples, benches, the CLI-style harnesses) describe
// *how* to solve with a SolvePlan (core/plan.hpp) -- one method plus exactly
// its option set -- and get back a SolveReport: the assignment, its delay
// breakdown, uniform run statistics, and the method-specific search stats
// (e.g. ColouredSsbStats::used_fallback) embedded as a variant instead of
// being discarded at the facade boundary.
//
// The lifetime contract is the library-wide one: the returned Assignment
// references the Colouring, which references the CruTree; keep both alive
// while the result is in use.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/assignment.hpp"
#include "core/objective.hpp"
#include "core/plan.hpp"

namespace treesat {

// Per-method search statistics for the methods whose result structs carry
// more than an assignment. ColouredSsbStats and ParetoDpStats come from
// their own headers (via core/plan.hpp); the rest are mirrored here so the
// facade can report them without exposing whole result structs.

struct ExhaustiveStats {
  std::size_t assignments_enumerated = 0;
};

struct BranchBoundStats {
  std::size_t nodes_visited = 0;
  std::size_t nodes_pruned = 0;
};

struct GeneticStats {
  std::size_t generations_run = 0;
  std::size_t evaluations = 0;
};

/// Also reported by the greedy descent (which is a degenerate local search).
struct LocalSearchStats {
  std::size_t moves_applied = 0;
  std::size_t restarts_run = 0;
};

struct AnnealingStats {
  std::size_t steps_run = 0;
  std::size_t moves_accepted = 0;
};

using MethodStats = std::variant<std::monostate, ColouredSsbStats, ParetoDpStats,
                                 ExhaustiveStats, BranchBoundStats, GeneticStats,
                                 LocalSearchStats, AnnealingStats>;

/// Result of one facade solve.
struct SolveReport {
  Assignment assignment;
  DelayBreakdown delay;
  double objective_value = 0.0;
  double wall_seconds = 0.0;
  bool exact = false;  ///< whether the method guarantees optimality
  /// The method that actually ran (never kAutomatic: resolution happened).
  SolveMethod method = SolveMethod::kColouredSsb;
  /// The method the plan asked for (kAutomatic when resolution chose).
  SolveMethod requested = SolveMethod::kColouredSsb;
  /// Method-specific search statistics.
  MethodStats stats;

  /// The stats of one method, or nullptr when another method ran:
  /// `report.stats_as<ColouredSsbStats>()->used_fallback`.
  template <typename T>
  [[nodiscard]] const T* stats_as() const {
    return std::get_if<T>(&stats);
  }

  /// Canonical name of the method that ran.
  [[nodiscard]] const char* method_label() const { return method_name(method); }
};

/// Solves with the plan's method. Exact methods return the optimum;
/// heuristics return their best-found assignment. The default plan is the
/// paper's coloured SSB search.
[[nodiscard]] SolveReport solve(const Colouring& colouring, const SolvePlan& plan = {});

/// Solves every instance with the same plan and returns per-instance
/// reports (results[i] belongs to *instances[i]). Routed through
/// solve_batch_report (core/executor.hpp), configured by the plan's
/// ExecutorOptions: plan.with_executor({.threads = 8}) or
/// parse_plan("...:threads=8") parallelizes the batch. Results are
/// byte-identical regardless of thread count -- seeded plans solve instance
/// i under derive_instance_seed(plan.seed(), i) at every thread count,
/// including the default threads=1. Instances are validated non-null up
/// front (before any work starts); on any per-instance failure the first
/// failure's exception is rethrown. Use solve_batch_report() when partial
/// results or the aggregate batch statistics matter. Each report references
/// its own instance's colouring/tree.
[[nodiscard]] std::vector<SolveReport> solve_batch(
    std::span<const Colouring* const> instances, const SolvePlan& plan = {});

}  // namespace treesat
