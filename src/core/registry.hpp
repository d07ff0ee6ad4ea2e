// The string-keyed method registry: the bridge between SolvePlan's typed
// surface and everything stringly typed around it -- CLI harnesses,
// experiment configs, the workload scenario runners.
//
//   for (const MethodInfo& m : method_registry()) ...   // enumerate methods
//   parse_plan("coloured-ssb:expansion_cap=4096")       // spec -> plan
//   plan_spec(plan)                                     // plan -> spec (round-trips)
//
// Spec grammar:  method[:key=value[,key=value...]]
// Method names accept '-' and '_' interchangeably. Every method accepts
// "lambda" (the §4.1 objective weighting, SsbObjective::from_lambda) and
// the batch-execution knobs "threads" (>= 1, or "auto" for one worker per
// hardware thread), "deadline_ms", "fail_fast" (core/executor.hpp) and
// "warm_start" (stream re-solving, core/incremental.hpp); seeded methods
// accept "seed"; the remaining keys are per-method (see
// MethodInfo::option_keys), each declared by one row of registry.cpp's
// option tables. Unknown methods, unknown keys, duplicate keys,
// malformed pairs and unparseable values all throw InvalidArgument naming
// the offending token.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/plan.hpp"

namespace treesat {

/// One registered solve method.
struct MethodInfo {
  SolveMethod method;
  const char* name;         ///< canonical registry key, e.g. "coloured-ssb"
  const char* paper_ref;    ///< where it lives relative to the paper
  const char* summary;      ///< one-line description
  bool exact;               ///< guarantees the optimum
  bool seeded;              ///< consumes a seed
  std::string option_keys;  ///< comma-separated per-method keys parse_plan
                            ///< accepts (after the common "lambda" / "seed")
};

/// All registered methods, in SolveMethod enum order (kAutomatic last).
[[nodiscard]] const std::vector<MethodInfo>& method_registry();

/// Registry entry of one method.
[[nodiscard]] const MethodInfo& method_info(SolveMethod method);

/// Lookup by name ('-'/'_' interchangeable); nullptr when unknown.
[[nodiscard]] const MethodInfo* find_method(std::string_view name);

/// Parses "method[:key=value,...]" into a plan. Throws InvalidArgument on
/// any malformed spec (unknown method or key, missing '=', bad value, or a
/// seed given to an unseeded method).
[[nodiscard]] SolvePlan parse_plan(std::string_view spec);

/// Canonical spec of a plan, listing every per-method option:
/// parse_plan(plan_spec(p)) reconstructs p exactly. (The warm-start cuts of
/// ColouredSsbOptions/BranchBoundOptions name concrete nodes and are not
/// spec-expressible; plans built by parse_plan never carry them.)
[[nodiscard]] std::string plan_spec(const SolvePlan& plan);

}  // namespace treesat
