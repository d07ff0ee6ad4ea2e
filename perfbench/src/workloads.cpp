#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/rng.hpp"
#include "workload/traffic.hpp"

namespace perfbench {

namespace {

using treesat::Rng;

// Every workload is composed of independent groups of tenants, each group
// one traffic_trace or stress_trace call of its own, interleaved uniformly
// at random. Two reasons:
//   * the generators size every tenant's drift stream to the whole request
//     budget, so one call with T tenants costs T x requests drift steps;
//     groups cost group size x requests;
//   * a request's cost is dominated by a few expensive instances (the
//     colour-skewed stress trees cost 9-33 ms to solve at 256 nodes, a star
//     of the same size 2 ms, a chain 0.02 ms), and within one stress trace
//     the Zipf head decides which of them carries the load. One trace per
//     seed made req/s differ 2x between seeds; averaging over many groups,
//     each with its own Zipf head, keeps a workload the same workload on
//     every seed.

// small_drift: the standard traffic_trace mix over the scenario library's
// small instances, 256 tenants.
constexpr std::size_t kSmallGroups = 16;
constexpr std::size_t kSmallGroupTenants = 16;
constexpr std::size_t kSmallGroupTicks = 500;

// large_drift: the stress universe with every generated instance at one
// fixed large size; groups of four tenants cover the four shape classes.
constexpr std::size_t kLargeGroups = 64;
constexpr std::size_t kLargeGroupTenants = 4;
constexpr std::size_t kLargeNodes = 192;
constexpr std::size_t kLargeGroupRequests = 60;

// spill_churn: 48 stress tenants, every one a 128-node star, under a
// memory budget of a forty-eighth of the trace's peak warm state, so nearly
// every solve and perturb reloads its session from the spill tier and
// spills another. The spill tier is on whatever disk holds the checkout,
// and each reload or spill costs a few file-system metadata operations
// whose latency swings several-fold over minutes on a shared disk.
// Sessions of ~150 KB make the snapshot codec, not those operations, the
// bulk of a request (~6 ms) and of the checkpoint restore (~35 ms). With
// the scenario library's ~4 KB sessions, file-system time was about a
// third of a request and four fifths of the restore, and req_per_s read
// 759 and 1248 in two runs of one seed a minute apart. One shape keeps
// every session alike: with chains, stars and colour-skewed trees mixed,
// request costs spread from 0.1 to 15 ms and the latency medians of one
// seed landed anywhere in that range.
constexpr std::size_t kChurnGroups = 48;
constexpr std::size_t kChurnNodes = 128;
constexpr std::size_t kChurnGroupRequests = 40;
constexpr std::size_t kChurnWarmStatePerBudget = 48;

/// Renames `"tenant":"t<k>"` to `"tenant":"t<k + offset>"` in one request
/// line, so independently generated groups address disjoint tenants.
std::string shift_tenant(const std::string& line, std::size_t offset) {
  static constexpr std::string_view kKey = "\"tenant\":\"t";
  const std::size_t at = line.find(kKey);
  if (at == std::string::npos) return line;
  const std::size_t digits = at + kKey.size();
  std::size_t end = digits;
  std::size_t k = 0;
  while (end < line.size() && line[end] >= '0' && line[end] <= '9') {
    k = k * 10 + static_cast<std::size_t>(line[end] - '0');
    ++end;
  }
  std::string out = line.substr(0, digits);
  out += std::to_string(k + offset);
  out.append(line, end, std::string::npos);
  return out;
}

/// Concatenates the groups' warm-up prefixes (one submit and one solve per
/// tenant), then interleaves the rest of their lines uniformly at random,
/// keeping each group's own order.
template <typename MakeGroup>
GeneratedTrace compose(std::uint64_t seed, std::size_t groups, std::size_t group_tenants,
                       MakeGroup make_group) {
  Rng rng(seed);
  GeneratedTrace out;
  std::vector<std::vector<std::string>> tails(groups);
  std::vector<std::size_t> order;
  for (std::size_t g = 0; g < groups; ++g) {
    std::vector<std::string> lines = make_group(rng());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::string line = shift_tenant(lines[i], g * group_tenants);
      if (i < 2 * group_tenants) {
        out.lines.push_back(std::move(line));
      } else {
        tails[g].push_back(std::move(line));
        order.push_back(g);
      }
    }
  }
  out.setup_lines = out.lines.size();
  rng.shuffle(order);
  std::vector<std::size_t> cursor(groups, 0);
  for (const std::size_t g : order) out.lines.push_back(std::move(tails[g][cursor[g]++]));
  return out;
}

std::vector<std::string> traffic_group(std::uint64_t seed, std::size_t tenants,
                                       std::size_t ticks) {
  treesat::TrafficOptions o;
  o.seed = seed;
  o.tenants = tenants;
  o.ticks = ticks;
  return treesat::traffic_trace(o).lines;
}

std::vector<std::string> stress_group(std::uint64_t seed) {
  treesat::StressOptions o;
  o.seed = seed;
  o.tenants = kLargeGroupTenants;
  o.min_nodes = kLargeNodes;
  o.max_nodes = kLargeNodes;
  o.requests = kLargeGroupRequests;
  return treesat::stress_trace(o).lines;
}

/// One star tenant's lines. stress_trace cycles shapes by tenant rank
/// (chain, star, skewed, library scenario), so a two-tenant trace's second
/// tenant, "t1", is a star; the chain's lines are dropped.
std::vector<std::string> star_group(std::uint64_t seed) {
  treesat::StressOptions o;
  o.seed = seed;
  o.tenants = 2;
  o.min_nodes = kChurnNodes;
  o.max_nodes = kChurnNodes;
  o.requests = kChurnGroupRequests;
  std::vector<std::string> out;
  for (std::string& line : treesat::stress_trace(o).lines) {
    if (line.find("\"tenant\":\"t1\"") != std::string::npos) out.push_back(std::move(line));
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"small_drift", "large_drift", "spill_churn"};
  return names;
}

GeneratedTrace generate_trace(const std::string& workload, std::uint64_t seed) {
  if (workload == "small_drift") {
    return compose(seed, kSmallGroups, kSmallGroupTenants, [](std::uint64_t s) {
      return traffic_group(s, kSmallGroupTenants, kSmallGroupTicks);
    });
  }
  if (workload == "large_drift") {
    return compose(seed, kLargeGroups, kLargeGroupTenants, stress_group);
  }
  if (workload == "spill_churn") {
    GeneratedTrace t = compose(seed, kChurnGroups, 1, star_group);
    treesat::SolverService unlimited;
    std::size_t peak = 0;
    for (const std::string& line : t.lines) {
      static_cast<void>(unlimited.handle_line(line));
      peak = std::max(peak, unlimited.telemetry().bytes_used);
    }
    t.mem_budget = peak / kChurnWarmStatePerBudget;
    return t;
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

treesat::ServiceOptions service_options(std::size_t mem_budget, const std::string& spill_dir) {
  treesat::ServiceOptions o;
  o.mem_budget = mem_budget;
  if (mem_budget != 0) o.spill_dir = spill_dir;
  return o;
}

bool starts_from_checkpoint(const std::string& workload) { return workload == "spill_churn"; }

std::size_t setups_per_replay(const std::string& workload) {
  // small_drift's warm-up prefix takes ~26 ms and spill_churn's restore
  // ~35 ms; large_drift's prefix takes ~0.7 s on its own.
  return workload == "large_drift" ? 1 : 8;
}

}  // namespace perfbench
