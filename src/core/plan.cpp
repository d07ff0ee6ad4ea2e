#include "core/plan.hpp"

#include <string>
#include <type_traits>

#include "core/exhaustive.hpp"

namespace treesat {

namespace {

// SolvePlan::method() reads the method off the options alternative, so the
// variant must list the option structs in SolveMethod order.
template <SolveMethod method, typename Options>
constexpr bool kAlternativeOf = std::is_same_v<
    std::variant_alternative_t<static_cast<std::size_t>(method), SolvePlan::Options>, Options>;
static_assert(std::variant_size_v<SolvePlan::Options> == kSolveMethodCount);
static_assert(kAlternativeOf<SolveMethod::kColouredSsb, ColouredSsbOptions> &&
              kAlternativeOf<SolveMethod::kParetoDp, ParetoDpOptions> &&
              kAlternativeOf<SolveMethod::kExhaustive, ExhaustiveOptions> &&
              kAlternativeOf<SolveMethod::kBranchBound, BranchBoundOptions> &&
              kAlternativeOf<SolveMethod::kGenetic, GeneticOptions> &&
              kAlternativeOf<SolveMethod::kLocalSearch, LocalSearchOptions> &&
              kAlternativeOf<SolveMethod::kGreedy, GreedyOptions> &&
              kAlternativeOf<SolveMethod::kAnnealing, AnnealingOptions> &&
              kAlternativeOf<SolveMethod::kAutomatic, AutomaticOptions>);

}  // namespace

const char* method_name(SolveMethod method) {
  switch (method) {
    case SolveMethod::kColouredSsb: return "coloured-ssb";
    case SolveMethod::kParetoDp: return "pareto-dp";
    case SolveMethod::kExhaustive: return "exhaustive";
    case SolveMethod::kBranchBound: return "branch-bound";
    case SolveMethod::kGenetic: return "genetic";
    case SolveMethod::kLocalSearch: return "local-search";
    case SolveMethod::kGreedy: return "greedy";
    case SolveMethod::kAnnealing: return "annealing";
    case SolveMethod::kAutomatic: return "automatic";
  }
  return "unknown";
}

SolveMethod parse_method(std::string_view name) {
  std::string canonical(name);
  for (char& c : canonical) {
    if (c == '_') c = '-';
  }
  for (const SolveMethod m :
       {SolveMethod::kColouredSsb, SolveMethod::kParetoDp, SolveMethod::kExhaustive,
        SolveMethod::kBranchBound, SolveMethod::kGenetic, SolveMethod::kLocalSearch,
        SolveMethod::kGreedy, SolveMethod::kAnnealing, SolveMethod::kAutomatic}) {
    if (canonical == method_name(m)) return m;
  }
  throw InvalidArgument("parse_method: unknown method '" + std::string(name) + "'");
}

SolvePlan SolvePlan::coloured_ssb(ColouredSsbOptions options) {
  return SolvePlan(Options(std::move(options)));
}
SolvePlan SolvePlan::pareto_dp(ParetoDpOptions options) {
  return SolvePlan(Options(std::move(options)));
}
SolvePlan SolvePlan::exhaustive(ExhaustiveOptions options) {
  return SolvePlan(Options(std::move(options)));
}
SolvePlan SolvePlan::branch_bound(BranchBoundOptions options) {
  return SolvePlan(Options(std::move(options)));
}
SolvePlan SolvePlan::genetic(GeneticOptions options) {
  return SolvePlan(Options(std::move(options)));
}
SolvePlan SolvePlan::local_search(LocalSearchOptions options) {
  return SolvePlan(Options(std::move(options)));
}
SolvePlan SolvePlan::greedy(GreedyOptions options) {
  return SolvePlan(Options(std::move(options)));
}
SolvePlan SolvePlan::annealing(AnnealingOptions options) {
  return SolvePlan(Options(std::move(options)));
}
SolvePlan SolvePlan::automatic(AutomaticOptions options) {
  return SolvePlan(Options(std::move(options)));
}

SsbObjective SolvePlan::objective() const {
  return std::visit([](const auto& o) { return o.objective; }, options_);
}

SolvePlan& SolvePlan::with_objective(const SsbObjective& objective) {
  TS_REQUIRE(objective.valid(), "with_objective: coefficients must be non-negative");
  std::visit([&](auto& o) { o.objective = objective; }, options_);
  return *this;
}

bool SolvePlan::seeded() const {
  return std::visit([](const auto& o) { return requires { o.seed; }; }, options_);
}

SolvePlan& SolvePlan::with_seed(std::uint64_t seed) {
  std::visit(
      [&](auto& o) {
        if constexpr (requires { o.seed; }) o.seed = seed;
      },
      options_);
  return *this;
}

std::uint64_t SolvePlan::seed() const {
  return std::visit(
      [](const auto& o) -> std::uint64_t {
        if constexpr (requires { o.seed; }) {
          return o.seed;
        } else {
          return 0;
        }
      },
      options_);
}

SolvePlan& SolvePlan::with_executor(const ExecutorOptions& executor) {
  TS_REQUIRE(executor.deadline_seconds >= 0.0,
             "with_executor: deadline must be non-negative, got "
                 << executor.deadline_seconds);
  executor_ = executor;
  return *this;
}

SolvePlan SolvePlan::resolve(const Colouring& colouring) const {
  objective().require_finite_for(colouring.tree().total_cost());
  if (method() != SolveMethod::kAutomatic) return *this;
  const auto& a = std::get<AutomaticOptions>(options_);

  // The resolved plan keeps the cross-cutting executor knobs.
  const auto resolved = [&](SolvePlan plan) {
    plan.executor_ = executor_;
    return plan;
  };

  if (a.exhaustive_cutoff > 0 &&
      count_assignments(colouring, a.exhaustive_cutoff) < a.exhaustive_cutoff) {
    ExhaustiveOptions o;
    o.objective = a.objective;
    return resolved(exhaustive(o));
  }

  bool multi_region_colour = false;
  std::vector<std::size_t> regions_per_colour(colouring.tree().satellite_count(), 0);
  for (const CruId root : colouring.region_roots()) {
    if (++regions_per_colour[colouring.colour(root).index()] > 1) {
      multi_region_colour = true;
      break;
    }
  }
  if (multi_region_colour) {
    ParetoDpOptions o;
    o.objective = a.objective;
    return resolved(pareto_dp(o));
  }
  ColouredSsbOptions o;
  o.objective = a.objective;
  return resolved(coloured_ssb(o));
}

}  // namespace treesat
