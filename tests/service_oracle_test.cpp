// Differential wall for the serving path: seeded streams of submit,
// perturb and solve requests over the scenario library, replayed through
// SolverService::handle_line while the test evolves its own copy of every
// tree with apply_perturbation. Every served objective must match the
// exhaustive oracle on that copy, and a pareto-dp answer (the service's
// default plan) must equal a cold solve() of the copy byte for byte. Every
// few steps a solve asks for "plan":"coloured-ssb", so the paper's search,
// its warm-started re-solves and its Pareto DP hand-off answer through the
// protocol too.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/format.hpp"
#include "common/parse.hpp"
#include "core/exhaustive.hpp"
#include "core/solver.hpp"
#include "io/json.hpp"
#include "service/service.hpp"
#include "tree/serialize.hpp"
#include "workload/drift.hpp"
#include "workload/scenarios.hpp"
#include "workload/traffic.hpp"

namespace treesat {
namespace {

constexpr std::uint64_t kSeeds = 96;
constexpr std::size_t kSteps = 24;     ///< perturbations per tenant stream
constexpr std::size_t kSsbEvery = 5;   ///< every 5th step solves with coloured-ssb
constexpr std::size_t kMaxCuts = std::size_t{1} << 16;  ///< oracle-sized trees only

std::string submit_line(const std::string& tenant, const CruTree& tree) {
  std::string line = "{\"op\":\"submit\",\"tenant\":\"";
  line += tenant;
  line += "\",\"instance\":\"w\",\"tree\":\"";
  line += json_escape(to_text(tree));
  line += "\"}";
  return line;
}

std::string solve_line(const std::string& tenant, const char* plan) {
  std::string line = "{\"op\":\"solve\",\"tenant\":\"";
  line += tenant;
  line += "\",\"instance\":\"w\"";
  if (plan != nullptr) {
    line += ",\"plan\":\"";
    line += plan;
    line += '"';
  }
  line += '}';
  return line;
}

/// The text of a response field's scalar value ("" when absent).
std::string field_text(const std::string& response, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = response.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t from = at + needle.size();
  return response.substr(from, response.find_first_of(",}", from) - from);
}

struct Tally {
  std::size_t checked = 0;
  std::size_t pareto_dp = 0;
  std::size_t coloured_ssb = 0;
};

/// Checks one served optimum against the oracle on the test's copy.
void expect_served_optimum(const std::string& response, const CruTree& copy,
                           const std::string& where, Tally& tally) {
  ASSERT_NE(response.find("\"ok\":true"), std::string::npos) << where << ": " << response;
  const std::string served = field_text(response, "objective");
  const std::optional<double> value = parse_double(served);
  ASSERT_TRUE(value.has_value()) << where << ": " << response;

  const Colouring colouring(copy);
  ASSERT_LT(count_assignments(colouring, kMaxCuts), kMaxCuts) << where;
  const double oracle = exhaustive_solve(colouring, SsbObjective::end_to_end()).objective;
  EXPECT_NEAR(*value, oracle, 1e-9) << where << ": " << response;
  ++tally.checked;

  const std::string method = field_text(response, "method");
  if (method == "\"pareto-dp\"") {
    const SolveReport cold = solve(colouring, SolvePlan::pareto_dp());
    EXPECT_EQ(served, shortest_round_trip(cold.objective_value)) << where << ": " << response;
    ++tally.pareto_dp;
  } else {
    EXPECT_EQ(method, "\"coloured-ssb\"") << where << ": " << response;
    ++tally.coloured_ssb;
  }
}

struct Tenant {
  std::string name;
  CruTree copy;  ///< evolves in lockstep with the service's instance
  std::vector<Perturbation> stream;
};

TEST(ServiceOracle, ServedOptimaMatchExhaustiveOverDriftStreams) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed);
    DriftOptions drift;
    drift.steps = kSteps;
    std::vector<Tenant> tenants;
    for (const Scenario& scenario : standard_scenarios()) {
      CruTree base = scenario.workload.lower(scenario.platform);
      if (count_assignments(Colouring(base), kMaxCuts) >= kMaxCuts) continue;
      Rng fork = rng.fork();
      std::vector<Perturbation> stream = drift_stream(fork, base, drift);
      tenants.push_back({scenario.name, std::move(base), std::move(stream)});
    }
    ASSERT_FALSE(tenants.empty());

    SolverService service;  // default plan: pareto-dp
    for (const Tenant& t : tenants) {
      ASSERT_NE(service.handle_line(submit_line(t.name, t.copy)).find("\"ok\":true"),
                std::string::npos);
    }
    for (std::size_t step = 0; step < kSteps; ++step) {
      for (Tenant& t : tenants) {
        if (step >= t.stream.size()) continue;
        const std::string where =
            "seed " + std::to_string(seed) + ", " + t.name + ", step " + std::to_string(step);
        const Perturbation& p = t.stream[step];
        const std::string perturbed = service.handle_line(perturb_line(t.name, "w", t.copy, p));
        t.copy = apply_perturbation(t.copy, p);
        if (perturbed.find("\"solved\":true") != std::string::npos) {
          expect_served_optimum(perturbed, t.copy, where + " (perturb)", tally);
        } else {
          EXPECT_NE(perturbed.find("\"ok\":true"), std::string::npos) << where << perturbed;
        }

        if (step % kSsbEvery == kSsbEvery - 1) {
          expect_served_optimum(service.handle_line(solve_line(t.name, "coloured-ssb")),
                                t.copy, where + " (coloured-ssb solve)", tally);
        } else if (rng.uniform_real(0.0, 1.0) < 0.35) {
          expect_served_optimum(service.handle_line(solve_line(t.name, nullptr)), t.copy,
                                where + " (solve)", tally);
        }
      }
    }
  }
  // Both plans answered, through solves and through perturb re-solves.
  EXPECT_GT(tally.pareto_dp, tally.checked / 4);
  EXPECT_GT(tally.coloured_ssb, tally.checked / 8);
}

}  // namespace
}  // namespace treesat
