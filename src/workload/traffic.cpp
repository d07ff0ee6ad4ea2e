#include "workload/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>

#include "common/check.hpp"
#include "common/json.hpp"
#include "tree/serialize.hpp"
#include "workload/generator.hpp"
#include "workload/scenarios.hpp"

namespace treesat {

namespace {

/// One tenant's evolving side of the trace.
struct TenantState {
  std::string name;
  CruTree current;                   ///< evolves in lockstep with the service
  std::vector<Perturbation> stream;  ///< pre-generated drift stream
  std::size_t cursor = 0;
};

/// A request line's op and addressee (no instance when `instance` is
/// empty); the caller adds the op's own fields.
JsonLineWriter request(std::string_view op, std::string_view tenant, std::string_view instance) {
  JsonLineWriter w;
  w.field_str("op", op).field_str("tenant", tenant);
  if (!instance.empty()) w.field_str("instance", instance);
  return w;
}

std::string submit_line(const TenantState& t, const std::string& instance) {
  return request("submit", t.name, instance).field_str("tree", to_text(t.current)).finish();
}

/// A churn re-submits the evolved tree, which the service's submit refuses
/// once it names more satellites than it has nodes (service/service.cpp):
/// satellite losses can leave ids past a shrunken tree's node count. Such a
/// tenant's churn event is a plain solve instead.
bool resubmittable(const TenantState& t) { return t.current.satellite_count() <= t.current.size(); }

std::string solve_line(const TenantState& t, const std::string& instance,
                       const std::string& plan, bool degrade = false) {
  JsonLineWriter w = request("solve", t.name, instance);
  if (!plan.empty()) w.field_str("plan", plan);
  if (degrade) w.field_bool("degrade", true);
  return w.finish();
}

/// Zipf(s) tenant popularity: rank k (0-based) drawn with weight 1/(k+1)^s
/// via inverse-CDF lookup. Small n (tenant counts), so the cdf is exact.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent) {
    TS_REQUIRE(n >= 1, "ZipfSampler: need at least one rank");
    cdf_.reserve(n);
    double total = 0.0;
    for (std::size_t k = 1; k <= n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), exponent);
      cdf_.push_back(total);
    }
  }

  std::size_t draw(Rng& rng) {
    const double u = rng.uniform_real(0.0, cdf_.back());
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

std::string perturb_line(const std::string& tenant, const std::string& instance,
                         const CruTree& current, const Perturbation& p, bool degrade) {
  JsonLineWriter w = request("perturb", tenant, instance);
  if (const auto* drift = p.as<ProfileDrift>()) {
    if (drift->satellite.valid()) {
      w.field_str("kind", "satellite_drift").field_uint("satellite", drift->satellite.value());
    } else {
      w.field_str("kind", "global_drift");
    }
    w.field_num("host_scale", drift->host_scale)
        .field_num("sat_scale", drift->sat_scale)
        .field_num("comm_scale", drift->comm_scale);
  } else if (const auto* loss = p.as<SatelliteLoss>()) {
    w.field_str("kind", "satellite_loss").field_uint("satellite", loss->satellite.value());
  } else {
    const auto* ins = p.as<SubtreeInsert>();
    TS_CHECK(ins != nullptr && ins->nodes.size() == 2 &&
                 ins->nodes[0].kind == CruKind::kCompute &&
                 ins->nodes[0].parent == SubtreeInsert::kAttach &&
                 ins->nodes[1].kind == CruKind::kSensor && ins->nodes[1].parent == 0,
             "perturb_line: drift stream produced a non-probe insertion");
    w.field_str("kind", "insert_probe")
        .field_str("parent", current.node(ins->parent).name)
        .field_str("name", ins->nodes[0].name)
        .field_uint("satellite", ins->nodes[1].satellite.value())
        .field_num("host_time", ins->nodes[0].host_time)
        .field_num("sat_time", ins->nodes[0].sat_time)
        .field_num("comm_up", ins->nodes[0].comm_up)
        .field_num("sensor_comm_up", ins->nodes[1].comm_up);
  }
  if (degrade) w.field_bool("degrade", true);
  return w.finish();
}

TrafficTrace traffic_trace(const TrafficOptions& options) {
  TS_REQUIRE(options.tenants >= 1, "traffic_trace: need at least one tenant");
  TS_REQUIRE(options.p_solve >= 0.0 && options.p_stats >= 0.0 && options.p_churn >= 0.0 &&
                 options.p_solve + options.p_stats + options.p_churn <= 1.0,
             "traffic_trace: event probabilities must be non-negative and sum to <= 1");

  const std::vector<Scenario> scenarios = standard_scenarios();
  const std::string instance = "w0";

  Rng rng(options.seed);
  std::vector<TenantState> tenants;
  tenants.reserve(options.tenants);
  for (std::size_t k = 0; k < options.tenants; ++k) {
    const Scenario& scenario = scenarios[k % scenarios.size()];
    CruTree base = scenario.workload.lower(scenario.platform);
    // Streams are sized to the tick budget: even if every tick lands on
    // this tenant, the stream does not run dry.
    DriftOptions drift = options.drift;
    drift.steps = options.ticks;
    Rng fork = rng.fork();
    std::vector<Perturbation> stream = drift_stream(fork, base, drift);
    std::string name = "t";
    name += std::to_string(k);
    tenants.push_back(TenantState{std::move(name), std::move(base), std::move(stream), 0});
  }

  TrafficTrace trace;
  // Warm-up: every tenant registers and solves once, so the interleaved
  // phase exercises a populated store.
  for (const TenantState& t : tenants) {
    trace.lines.push_back(submit_line(t, instance));
    ++trace.submits;
    trace.lines.push_back(solve_line(t, instance, options.plan));
    ++trace.solves;
  }

  for (std::size_t tick = 0; tick < options.ticks; ++tick) {
    TenantState& t = tenants[rng.index(tenants.size())];
    const double u = rng.uniform_real(0.0, 1.0);
    if (u < options.p_stats) {
      trace.lines.push_back(request("stats", t.name, {}).finish());
      ++trace.stats_polls;
    } else if (u < options.p_stats + options.p_churn && resubmittable(t)) {
      trace.lines.push_back(request("evict", t.name, instance).finish());
      ++trace.evicts;
      trace.lines.push_back(submit_line(t, instance));
      ++trace.submits;
      trace.lines.push_back(solve_line(t, instance, options.plan));
      ++trace.solves;
    } else if (u < options.p_stats + options.p_churn + options.p_solve) {
      trace.lines.push_back(solve_line(t, instance, options.plan));
      ++trace.solves;
    } else if (t.cursor < t.stream.size()) {
      const Perturbation& p = t.stream[t.cursor++];
      trace.lines.push_back(perturb_line(t.name, instance, t.current, p));
      ++trace.perturbs;
      t.current = apply_perturbation(t.current, p);
    } else {
      trace.lines.push_back(solve_line(t, instance, options.plan));
      ++trace.solves;
    }
  }
  return trace;
}

namespace {

/// The pathological base instance of stress tenant k: deep chain, wide
/// star, colour-skewed tree or a library scenario, cycling by rank so the
/// Zipf head hits every shape class. `nodes` is the log-uniform size draw.
CruTree stress_instance(Rng& rng, std::size_t k, std::size_t nodes,
                        const std::vector<Scenario>& scenarios) {
  switch (k % 4) {
    case 0: {
      ChainGenOptions o;
      o.compute_nodes = nodes;
      o.satellites = 2;
      o.sensor_every = 64;
      o.host_cost_every = 16;
      return chain_tree(rng, o);
    }
    case 1: {
      StarGenOptions o;
      // An arm is a compute node plus its sensor: halve so the node count
      // lands near the draw.
      o.arms = std::max<std::size_t>(std::size_t{1}, nodes / 2);
      return star_tree(rng, o);
    }
    case 2: {
      SkewGenOptions o;
      o.compute_nodes = nodes;
      return skewed_tree(rng, o);
    }
    default: {
      const Scenario& scenario = scenarios[(k / 4) % scenarios.size()];
      return scenario.workload.lower(scenario.platform);
    }
  }
}

}  // namespace

TrafficTrace stress_trace(const StressOptions& options) {
  TS_REQUIRE(options.tenants >= 1, "stress_trace: need at least one tenant");
  TS_REQUIRE(options.window >= 1, "stress_trace: need a positive in-flight window");
  TS_REQUIRE(options.phase_ticks >= 1, "stress_trace: need a positive phase length");
  TS_REQUIRE(options.min_nodes >= 2 && options.min_nodes <= options.max_nodes,
             "stress_trace: bad node size range");
  TS_REQUIRE(options.zipf_exponent >= 0.0, "stress_trace: zipf_exponent must be >= 0");
  TS_REQUIRE(options.p_solve >= 0.0 && options.p_stats >= 0.0 && options.p_churn >= 0.0 &&
                 options.p_solve + options.p_stats + options.p_churn <= 1.0,
             "stress_trace: event probabilities must be non-negative and sum to <= 1");
  TS_REQUIRE(options.p_degrade >= 0.0 && options.p_degrade <= 1.0,
             "stress_trace: p_degrade must be a probability");

  const std::vector<Scenario> scenarios = standard_scenarios();
  const std::string instance = "w0";

  Rng rng(options.seed);
  std::vector<TenantState> tenants;
  tenants.reserve(options.tenants);
  for (std::size_t k = 0; k < options.tenants; ++k) {
    // Log-uniform sizes: the head tenants are as likely to be huge as tiny,
    // which is exactly the mix that makes admission interesting.
    const double log_nodes = rng.uniform_real(std::log(static_cast<double>(options.min_nodes)),
                                              std::log(static_cast<double>(options.max_nodes)));
    const std::size_t nodes = static_cast<std::size_t>(std::exp(log_nodes));
    Rng shape_fork = rng.fork();
    CruTree base = stress_instance(shape_fork, k, nodes, scenarios);
    DriftOptions drift = options.drift;
    // Sized so the stream cannot run dry even if every slot lands here.
    drift.steps = options.requests;
    Rng drift_fork = rng.fork();
    std::vector<Perturbation> stream = drift_stream(drift_fork, base, drift);
    std::string name = "t";
    name += std::to_string(k);
    tenants.push_back(TenantState{std::move(name), std::move(base), std::move(stream), 0});
  }

  TrafficTrace trace;
  for (const TenantState& t : tenants) {
    trace.lines.push_back(submit_line(t, instance));
    ++trace.submits;
    trace.lines.push_back(solve_line(t, instance, options.plan));
    ++trace.solves;
  }

  // The closed loop, simulated: per-tenant in-flight counts bound issue
  // (a saturated client skips its arrival slot -- that is the back-off a
  // bounded-concurrency client performs), a FIFO of outstanding work
  // completes at a fixed rate. All of it happens at generation time; the
  // emitted text is as open-loop and replayable as any other trace.
  ZipfSampler zipf(options.tenants, options.zipf_exponent);
  std::vector<std::size_t> in_flight(options.tenants, 0);
  std::deque<std::size_t> outstanding;
  static constexpr std::size_t kWave[4] = {1, 2, 3, 2};

  std::size_t issued = 0;
  // Termination backstop: a window so tight that every slot is skipped
  // still drains `completions_per_tick` per tick, so this bound is never
  // reached in practice; it guards against a zero drain rate.
  const std::size_t max_ticks = options.requests * 8 + 16;
  for (std::size_t tick = 0; tick < max_ticks && issued < options.requests; ++tick) {
    const std::size_t phase = tick / options.phase_ticks;
    const bool burst =
        options.burst_every != 0 && phase % options.burst_every == options.burst_every - 1;
    const std::size_t arrivals = burst ? options.window * 2 : kWave[phase % 4];

    for (std::size_t a = 0; a < arrivals && issued < options.requests; ++a) {
      const std::size_t k = zipf.draw(rng);
      const double u = rng.uniform_real(0.0, 1.0);
      const bool degrade = rng.bernoulli(options.p_degrade);
      if (in_flight[k] >= options.window) continue;  // client window full: back off
      ++issued;
      ++in_flight[k];
      outstanding.push_back(k);
      TenantState& t = tenants[k];
      if (u < options.p_stats) {
        trace.lines.push_back(request("stats", t.name, {}).finish());
        ++trace.stats_polls;
      } else if (u < options.p_stats + options.p_churn && resubmittable(t)) {
        trace.lines.push_back(request("evict", t.name, instance).finish());
        ++trace.evicts;
        trace.lines.push_back(submit_line(t, instance));
        ++trace.submits;
        trace.lines.push_back(solve_line(t, instance, options.plan, degrade));
        ++trace.solves;
        if (degrade) ++trace.degrade_flags;
      } else if (u < options.p_stats + options.p_churn + options.p_solve ||
                 t.cursor >= t.stream.size()) {
        trace.lines.push_back(solve_line(t, instance, options.plan, degrade));
        ++trace.solves;
        if (degrade) ++trace.degrade_flags;
      } else {
        const Perturbation& p = t.stream[t.cursor++];
        trace.lines.push_back(perturb_line(t.name, instance, t.current, p, degrade));
        ++trace.perturbs;
        if (degrade) ++trace.degrade_flags;
        t.current = apply_perturbation(t.current, p);
      }
    }

    for (std::size_t c = 0; c < options.completions_per_tick && !outstanding.empty(); ++c) {
      --in_flight[outstanding.front()];
      outstanding.pop_front();
    }
  }
  return trace;
}

}  // namespace treesat
