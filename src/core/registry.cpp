#include "core/registry.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <type_traits>

#include "common/format.hpp"
#include "common/parse.hpp"

namespace treesat {

namespace {

[[noreturn]] void bad_value(std::string_view key, std::string_view value) {
  throw InvalidArgument("parse_plan: cannot parse value '" + std::string(value) +
                        "' for key '" + std::string(key) + "'");
}

template <typename T>
T parse_value(std::string_view key, std::string_view value) {
  std::optional<T> out;
  if constexpr (std::is_same_v<T, bool>) {
    out = parse_bool(value);
  } else if constexpr (std::is_floating_point_v<T>) {
    out = parse_double(value);
  } else {
    static_assert(std::is_unsigned_v<T>, "option members are bool, double or unsigned");
    const std::optional<std::uint64_t> wide = parse_u64(value);
    if (wide && *wide <= std::numeric_limits<T>::max()) out = static_cast<T>(*wide);
  }
  if (!out) bad_value(key, value);
  return *out;
}

/// Shortest round-trippable formatting, so plan_spec stays readable.
std::string format_value(double v) { return shortest_round_trip(v); }
std::string format_value(bool v) { return v ? "true" : "false"; }
template <typename T>
  requires std::is_unsigned_v<T>
std::string format_value(T v) {
  return std::to_string(static_cast<std::uint64_t>(v));
}

/// One per-method option, declared once: its spec key, an optional second
/// spelling accepted on input, and the options member it sets. The rows of
/// a method drive parse_plan, plan_spec (row order is print order) and
/// MethodInfo::option_keys.
struct OptionRow {
  std::string_view key;
  std::string_view alias;  ///< parsed like `key`, never printed; empty when none
  void (*parse)(SolvePlan::Options& options, std::string_view key, std::string_view value);
  void (*print)(const SolvePlan::Options& options, std::string& out);
};

template <typename>
struct MemberOf;
template <typename Class, typename Value>
struct MemberOf<Value Class::*> {
  using Owner = Class;
  using Type = Value;
};

template <auto member>
constexpr OptionRow option(std::string_view key, std::string_view alias = {}) {
  using Owner = typename MemberOf<decltype(member)>::Owner;
  using Type = typename MemberOf<decltype(member)>::Type;
  return {key, alias,
          [](SolvePlan::Options& options, std::string_view k, std::string_view v) {
            std::get<Owner>(options).*member = parse_value<Type>(k, v);
          },
          [](const SolvePlan::Options& options, std::string& out) {
            out += format_value(std::get<Owner>(options).*member);
          }};
}

constexpr OptionRow kColouredSsbOptions[] = {
    option<&ColouredSsbOptions::expansion_cap_per_region>("expansion_cap",
                                                          "expansion_cap_per_region"),
    option<&ColouredSsbOptions::eager_expansion>("eager_expansion"),
};
constexpr OptionRow kParetoDpOptions[] = {
    option<&ParetoDpOptions::max_frontier>("max_frontier"),
};
constexpr OptionRow kExhaustiveOptions[] = {
    option<&ExhaustiveOptions::cap>("cap"),
};
constexpr OptionRow kBranchBoundOptions[] = {
    option<&BranchBoundOptions::node_cap>("node_cap"),
    option<&BranchBoundOptions::greedy_incumbent>("greedy_incumbent"),
};
constexpr OptionRow kGeneticOptions[] = {
    option<&GeneticOptions::population>("population"),
    option<&GeneticOptions::generations>("generations"),
    option<&GeneticOptions::tournament>("tournament"),
    option<&GeneticOptions::elites>("elites"),
    option<&GeneticOptions::crossover_prob>("crossover_prob"),
    option<&GeneticOptions::mutation_prob>("mutation_prob"),
};
constexpr OptionRow kLocalSearchOptions[] = {
    option<&LocalSearchOptions::restarts>("restarts"),
    option<&LocalSearchOptions::max_moves>("max_moves"),
};
constexpr OptionRow kAnnealingOptions[] = {
    option<&AnnealingOptions::steps>("steps"),
    option<&AnnealingOptions::initial_temperature>("initial_temperature"),
    option<&AnnealingOptions::cooling>("cooling"),
};
constexpr OptionRow kAutomaticOptions[] = {
    option<&AutomaticOptions::exhaustive_cutoff>("exhaustive_cutoff"),
};

/// One registered method. The default option struct names the method (its
/// variant alternative) and whether it is seeded (it has a `seed`).
struct MethodRow {
  SolvePlan::Options defaults;
  const char* paper_ref;
  const char* summary;
  bool exact;
  std::span<const OptionRow> options;
};

/// The registry, in SolveMethod enum order (kAutomatic last).
const std::vector<MethodRow>& method_rows() {
  static const std::vector<MethodRow> kRows = {
      {ColouredSsbOptions{}, "§5.4", "the paper's adapted coloured SSB path search",
       /*exact=*/true, kColouredSsbOptions},
      {ParetoDpOptions{}, "extension (README: Pareto-DP core)",
       "Pareto-frontier dynamic program", /*exact=*/true, kParetoDpOptions},
      {ExhaustiveOptions{}, "§3 (oracle)", "brute-force enumeration of every monotone cut",
       /*exact=*/true, kExhaustiveOptions},
      {BranchBoundOptions{}, "§6 future work", "branch-and-bound over cuts (exact on trees)",
       /*exact=*/true, kBranchBoundOptions},
      {GeneticOptions{}, "§6 future work", "genetic algorithm", /*exact=*/false,
       kGeneticOptions},
      {LocalSearchOptions{}, "§6 (comparison point)", "hill climbing with random restarts",
       /*exact=*/false, kLocalSearchOptions},
      {GreedyOptions{}, "§6 (comparison point)", "greedy bottleneck descent",
       /*exact=*/false, {}},
      {AnnealingOptions{}, "§6 (comparison point)",
       "simulated annealing with geometric cooling", /*exact=*/false, kAnnealingOptions},
      {AutomaticOptions{}, "facade", "inspects the instance and picks one of the above",
       /*exact=*/false, kAutomaticOptions},
  };
  return kRows;
}

const MethodRow& method_row(SolveMethod method) {
  return method_rows()[static_cast<std::size_t>(method)];
}

const std::vector<MethodInfo>& registry_storage() {
  static const std::vector<MethodInfo> kRegistry = [] {
    std::vector<MethodInfo> out;
    for (std::size_t i = 0; i < method_rows().size(); ++i) {
      const MethodRow& row = method_rows()[i];
      const SolvePlan defaults(row.defaults);
      TS_CHECK(static_cast<std::size_t>(defaults.method()) == i,
               "method registry: row " << i << " is out of SolveMethod order");
      std::string keys;
      for (const OptionRow& option : row.options) {
        if (!keys.empty()) keys += ',';
        keys += option.key;
      }
      out.push_back({defaults.method(), method_name(defaults.method()), row.paper_ref,
                     row.summary, row.exact, defaults.seeded(), std::move(keys)});
    }
    return out;
  }();
  return kRegistry;
}

const OptionRow* find_option(std::span<const OptionRow> rows, std::string_view key) {
  for (const OptionRow& row : rows) {
    if (key == row.key || (!row.alias.empty() && key == row.alias)) return &row;
  }
  return nullptr;
}

[[noreturn]] void unknown_key(const MethodInfo& info, std::string_view key) {
  std::string message = "parse_plan: unknown key '";
  message += key;
  message += "' for method '";
  message += info.name;
  message += "' (accepted: lambda,s_coeff,b_coeff,threads,deadline_ms,fail_fast,warm_start";
  if (info.seeded) message += ",seed";
  if (!info.option_keys.empty()) {
    message += ',';
    message += info.option_keys;
  }
  message += ')';
  throw InvalidArgument(message);
}

/// Objective coefficients must stay in the model's domain: silently
/// accepting nan or a negative weight would corrupt every comparison the
/// solvers make.
double parse_coefficient(std::string_view key, std::string_view value) {
  const double out = parse_value<double>(key, value);
  if (!std::isfinite(out) || out < 0.0) {
    throw InvalidArgument("parse_plan: key '" + std::string(key) +
                          "' must be a finite non-negative number, got '" +
                          std::string(value) + "'");
  }
  return out;
}

/// The keys every method understands: the §4.1 objective weighting.
bool apply_objective_key(SsbObjective& objective, std::string_view key,
                         std::string_view value) {
  if (key == "lambda") {
    objective = SsbObjective::from_lambda(parse_value<double>(key, value));
    return true;
  }
  if (key == "s_coeff") {
    objective.s_coeff = parse_coefficient(key, value);
    return true;
  }
  if (key == "b_coeff") {
    objective.b_coeff = parse_coefficient(key, value);
    return true;
  }
  return false;
}

/// The other common key family: the batch-execution knobs of
/// core/executor.hpp, accepted by every method and carried on the plan.
bool apply_executor_key(ExecutorOptions& executor, std::string_view key,
                        std::string_view value) {
  if (key == "threads") {
    if (value == "auto") {  // one worker per hardware thread
      executor.threads = 0;
      return true;
    }
    executor.threads = parse_value<std::size_t>(key, value);
    if (executor.threads == 0) {
      throw InvalidArgument(
          "parse_plan: key 'threads' must be >= 1 or 'auto', got '" +
          std::string(value) + "' (omit the key for the single-threaded default)");
    }
    return true;
  }
  if (key == "deadline_ms") {
    const double ms = parse_value<double>(key, value);
    if (!std::isfinite(ms) || ms < 0.0) {
      throw InvalidArgument("parse_plan: key 'deadline_ms' must be a finite "
                            "non-negative number, got '" +
                            std::string(value) + "'");
    }
    executor.deadline_seconds = ms / 1e3;
    return true;
  }
  if (key == "fail_fast") {
    executor.fail_fast = parse_value<bool>(key, value);
    return true;
  }
  if (key == "warm_start") {
    executor.warm_start = parse_value<bool>(key, value);
    return true;
  }
  return false;
}

}  // namespace

const std::vector<MethodInfo>& method_registry() { return registry_storage(); }

const MethodInfo& method_info(SolveMethod method) {
  for (const MethodInfo& info : registry_storage()) {
    if (info.method == method) return info;
  }
  throw LogicError("method_info: unregistered method");
}

const MethodInfo* find_method(std::string_view name) {
  std::string canonical(name);
  for (char& c : canonical) {
    if (c == '_') c = '-';
  }
  for (const MethodInfo& info : registry_storage()) {
    if (canonical == info.name) return &info;
  }
  return nullptr;
}

SolvePlan parse_plan(std::string_view spec) {
  const auto colon = spec.find(':');
  const std::string_view name =
      colon == std::string_view::npos ? spec : spec.substr(0, colon);
  const MethodInfo* info = find_method(name);
  if (info == nullptr) {
    std::string message = "parse_plan: unknown method '";
    message += name;
    message += "' (registered:";
    for (const MethodInfo& m : registry_storage()) {
      message += ' ';
      message += m.name;
    }
    message += ')';
    throw InvalidArgument(message);
  }
  const MethodRow& row = method_row(info->method);

  std::vector<SpecPair> pairs;
  if (colon != std::string_view::npos) {
    pairs = split_spec(spec.substr(colon + 1), ',', '=', /*skip_empty=*/false,
                       [&](std::string_view pair) {
                         throw InvalidArgument("parse_plan: malformed 'key=value' pair '" +
                                               std::string(pair) + "' in '" +
                                               std::string(spec) + "'");
                       });
  }

  // A repeated key is a confused spec, not a harmless override: reject it
  // instead of silently keeping whichever copy lands last. An alias counts
  // as its key -- both set the same field.
  const SpecPair* duplicate = find_duplicate_key(pairs, [&](std::string_view key) {
    const OptionRow* option = find_option(row.options, key);
    return option == nullptr ? key : option->key;
  });
  if (duplicate != nullptr) {
    throw InvalidArgument("parse_plan: duplicate key '" + std::string(duplicate->key) +
                          "' in '" + std::string(spec) + "'");
  }

  // Reject a seed on methods that would silently ignore it.
  for (const SpecPair& kv : pairs) {
    if (kv.key == "seed" && !info->seeded) {
      throw InvalidArgument("parse_plan: method '" + std::string(info->name) +
                            "' is deterministic and does not take a seed");
    }
  }

  SolvePlan::Options options = row.defaults;
  SsbObjective& objective =
      std::visit([](auto& o) -> SsbObjective& { return o.objective; }, options);
  ExecutorOptions executor;
  std::optional<std::uint64_t> seed;
  for (const SpecPair& kv : pairs) {
    if (apply_objective_key(objective, kv.key, kv.value)) continue;
    if (apply_executor_key(executor, kv.key, kv.value)) continue;
    if (kv.key == "seed") {
      seed = parse_value<std::uint64_t>(kv.key, kv.value);
      continue;
    }
    const OptionRow* option = find_option(row.options, kv.key);
    if (option == nullptr) unknown_key(*info, kv.key);
    option->parse(options, kv.key, kv.value);
  }

  SolvePlan plan(std::move(options));
  if (seed) plan.with_seed(*seed);
  plan.with_executor(executor);
  return plan;
}

std::string plan_spec(const SolvePlan& plan) {
  std::string spec = method_name(plan.method());
  char separator = ':';
  const auto key = [&](std::string_view name) {
    spec += separator;
    separator = ',';
    spec += name;
    spec += '=';
  };

  // The common keys print only when they differ from the default.
  const SsbObjective objective = plan.objective();
  if (objective.s_coeff != 1.0) {
    key("s_coeff");
    spec += format_value(objective.s_coeff);
  }
  if (objective.b_coeff != 1.0) {
    key("b_coeff");
    spec += format_value(objective.b_coeff);
  }
  const ExecutorOptions& executor = plan.executor();
  if (executor.threads != 1) {
    key("threads");
    spec += executor.threads == 0 ? std::string("auto") : format_value(executor.threads);
  }
  if (executor.deadline_seconds != 0.0) {
    key("deadline_ms");
    spec += format_value(executor.deadline_seconds * 1e3);
  }
  if (!executor.fail_fast) {
    key("fail_fast");
    spec += format_value(false);
  }
  if (executor.warm_start) {
    key("warm_start");
    spec += format_value(true);
  }

  // Every per-method option prints, in row order; the seed comes last.
  for (const OptionRow& option : method_row(plan.method()).options) {
    key(option.key);
    option.print(plan.options(), spec);
  }
  if (plan.seeded()) {
    key("seed");
    spec += format_value(plan.seed());
  }
  return spec;
}

}  // namespace treesat
