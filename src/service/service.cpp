#include "service/service.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/format.hpp"
#include "common/parse.hpp"
#include "core/registry.hpp"
#include "core/solver.hpp"
#include "heuristics/local_search.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/protocol.hpp"
#include "storage/checkpoint.hpp"
#include "tree/serialize.hpp"

namespace treesat {

namespace {

// --- config spec parsing -------------------------------------------------

[[noreturn]] void bad_config_value(std::string_view key, std::string_view value) {
  throw InvalidArgument("parse_service_config: cannot parse value '" + std::string(value) +
                        "' for key '" + std::string(key) + "'");
}

/// `parsed` is the strict parse (common/parse.hpp) of `value`; a rejection
/// becomes the config's own error.
template <typename T>
T config_value(std::string_view key, const std::optional<T>& parsed, std::string_view value) {
  if (!parsed) bad_config_value(key, value);
  return *parsed;
}

/// Byte count with an optional k/m/g suffix (binary units): "64m", "512k".
/// Overflow is rejected, not wrapped: a budget that silently wraps to a
/// tiny value would evict every warm session with no diagnostic.
std::size_t config_bytes(std::string_view key, std::string_view value) {
  std::size_t multiplier = 1;
  std::string_view digits = value;
  if (!value.empty()) {
    switch (value.back()) {
      case 'k': case 'K': multiplier = std::size_t{1} << 10; break;
      case 'm': case 'M': multiplier = std::size_t{1} << 20; break;
      case 'g': case 'G': multiplier = std::size_t{1} << 30; break;
      default: break;
    }
    if (multiplier != 1) digits = value.substr(0, value.size() - 1);
  }
  const std::uint64_t count = config_value(key, parse_u64(digits), digits);
  if (count != 0 &&
      count > std::numeric_limits<std::size_t>::max() / multiplier) {
    throw InvalidArgument("parse_service_config: key '" + std::string(key) +
                          "' overflows: '" + std::string(value) +
                          "' (use 0 for an unlimited budget)");
  }
  return static_cast<std::size_t>(count) * multiplier;
}

DegradeMode config_degrade_mode(std::string_view value) {
  if (value == "off") return DegradeMode::kOff;
  if (value == "greedy") return DegradeMode::kGreedy;
  throw InvalidArgument("parse_service_config: key 'degrade' must be off or greedy, got '" +
                        std::string(value) + "'");
}

}  // namespace

ServiceOptions parse_service_config(std::string_view spec) {
  ServiceOptions options;
  if (spec.empty()) return options;

  const std::vector<SpecPair> pairs =
      split_spec(spec, ',', '=', /*skip_empty=*/false, [&](std::string_view pair) {
        throw InvalidArgument("parse_service_config: malformed 'key=value' pair '" +
                              std::string(pair) + "' in '" + std::string(spec) + "'");
      });
  if (const SpecPair* duplicate = find_duplicate_key(pairs)) {
    throw InvalidArgument("parse_service_config: duplicate key '" +
                          std::string(duplicate->key) + "' in '" + std::string(spec) + "'");
  }

  for (const auto& [key, value] : pairs) {
    if (key == "shards") {
      const std::uint64_t shards = config_value(key, parse_u64(value), value);
      if (shards == 0 || shards > SessionStore::kMaxShards) {
        throw InvalidArgument(
            "parse_service_config: key 'shards' must be in [1, " +
            std::to_string(SessionStore::kMaxShards) + "], got '" + std::string(value) +
            "' (behavior is shard-count-invariant; 1 is the sequential default)");
      }
      options.shards = static_cast<std::size_t>(shards);
    } else if (key == "mem_budget") {
      options.mem_budget = config_bytes(key, value);
    } else if (key == "spill_dir") {
      if (value.empty()) {
        throw InvalidArgument(
            "parse_service_config: key 'spill_dir' needs a directory path (omit the key to "
            "disable the spill tier)");
      }
      options.spill_dir = std::string(value);
    } else if (key == "spill_budget") {
      options.spill_budget = config_bytes(key, value);
    } else if (key == "deadline_ms") {
      const double ms = config_value(key, parse_double(value), value);
      if (!std::isfinite(ms) || ms < 0.0) {
        throw InvalidArgument("parse_service_config: key 'deadline_ms' must be a finite "
                              "non-negative number, got '" +
                              std::string(value) + "'");
      }
      options.deadline_seconds = ms / 1e3;
    } else if (key == "fail_fast") {
      options.fail_fast = config_value(key, parse_bool(value), value);
    } else if (key == "plan") {
      // Validated eagerly so a typo'd default plan fails at startup, not on
      // the first solve request. The config grammar splits on commas, so
      // multi-key plan specs are per-request territory.
      static_cast<void>(parse_plan(value));
      options.plan = std::string(value);
    } else if (key == "degrade") {
      options.degrade = config_degrade_mode(value);
    } else if (key == "fault") {
      // Comma-free sub-spec (';'/':'-separated, storage/faults.hpp) so a
      // full fault plan nests inside this comma-split grammar.
      options.faults = parse_fault_plan(std::string(value));
    } else {
      throw InvalidArgument("parse_service_config: unknown key '" + std::string(key) +
                            "' (accepted: shards,mem_budget,spill_dir,spill_budget,"
                            "deadline_ms,fail_fast,plan,degrade,fault)");
    }
  }
  if (options.spill_budget != 0 && options.spill_dir.empty()) {
    throw InvalidArgument(
        "parse_service_config: key 'spill_budget' requires 'spill_dir' (nothing can spill "
        "without a spill directory)");
  }
  return options;
}

std::string service_config_spec(const ServiceOptions& options) {
  std::string spec = "shards=" + std::to_string(options.shards);
  spec += ",mem_budget=" + std::to_string(options.mem_budget);
  if (!options.spill_dir.empty()) spec += ",spill_dir=" + options.spill_dir;
  if (options.spill_budget != 0) spec += ",spill_budget=" + std::to_string(options.spill_budget);
  if (options.deadline_seconds != 0.0) {
    spec += ",deadline_ms=" + shortest_round_trip(options.deadline_seconds * 1e3);
  }
  if (!options.fail_fast) spec += ",fail_fast=false";
  if (options.degrade == DegradeMode::kGreedy) spec += ",degrade=greedy";
  const std::string faults = fault_plan_spec(options.faults);
  if (!faults.empty()) spec += ",fault=" + faults;
  spec += ",plan=" + options.plan;
  return spec;
}

// --- the service ---------------------------------------------------------

SolverService::SolverService(ServiceOptions options)
    : options_(std::move(options)),
      default_plan_(parse_plan(options_.plan)),
      store_(options_.shards, options_.mem_budget, options_.spill_dir,
             options_.spill_budget) {
  // The store's copy is the live plan: its trial counters advance with the
  // request stream. options_.faults stays the pristine configured schedule.
  store_.set_fault_plan(options_.faults);
}

namespace {

// session_plan_key (the result-invisible-knob stripping) lives in
// service/session_store.cpp now: the spill tier needs it to recover an
// entry's plan identity from a reloaded snapshot.

/// The session-store identifiers; '/' is the store's key separator and a
/// slash-y tenant would alias another tenant's instances.
void require_id(const char* what, const std::string& value) {
  if (value.empty() || value.find('/') != std::string::npos) {
    throw InvalidArgument("request: '" + std::string(what) +
                          "' must be non-empty and '/'-free, got '" + value + "'");
  }
}

/// The request's "satellite" field. Satellite ids are 32-bit with the top
/// value reserved as the invalid sentinel, so a larger integer would wrap
/// onto a real satellite instead of naming a missing one.
SatelliteId satellite_at(const RequestObject& req) {
  const std::size_t id = req.size_at("satellite");
  if (id >= SatelliteId::kInvalid) {
    throw InvalidArgument("request: field 'satellite' must be below " +
                          std::to_string(SatelliteId::kInvalid) + ", got " + std::to_string(id));
  }
  return SatelliteId{id};
}

/// The perturbation a perturb request describes, resolved against the
/// entry's current tree (insert parents are named by node *name*: names
/// survive the id compaction of a satellite loss, ids do not).
Perturbation parse_perturbation(const RequestObject& req, const CruTree& tree) {
  const std::string& kind = req.string_at("kind");
  if (kind == "global_drift") {
    return Perturbation::global_drift(req.number_or("host_scale", 1.0),
                                      req.number_or("sat_scale", 1.0),
                                      req.number_or("comm_scale", 1.0));
  }
  if (kind == "satellite_drift") {
    return Perturbation::satellite_drift(satellite_at(req),
                                         req.number_or("host_scale", 1.0),
                                         req.number_or("sat_scale", 1.0),
                                         req.number_or("comm_scale", 1.0));
  }
  if (kind == "satellite_loss") {
    return Perturbation::satellite_loss(satellite_at(req));
  }
  if (kind == "insert_probe") {
    const CruId parent = tree.by_name(req.string_at("parent"));
    // A probe joins an existing satellite or the next new one. Anything
    // higher would grow the platform by the gap, and every solve sizes its
    // per-colour state by the satellite count.
    const SatelliteId satellite = satellite_at(req);
    if (satellite.index() > tree.satellite_count()) {
      throw InvalidArgument("request: field 'satellite' of insert_probe must name one of the " +
                            std::to_string(tree.satellite_count()) +
                            " satellites or the next new one, got " +
                            std::to_string(satellite.index()));
    }
    return Perturbation::insert_probe(parent, req.string_at("name"), satellite,
                                      req.number_or("host_time", 1.0),
                                      req.number_or("sat_time", 1.0),
                                      req.number_or("comm_up", 1.0),
                                      req.number_or("sensor_comm_up", 1.0));
  }
  throw InvalidArgument("request: unknown perturbation kind '" + kind +
                        "' (global_drift, satellite_drift, satellite_loss, insert_probe)");
}

/// The cut as an array of node names (stable identifiers, unlike ids).
void add_cut(JsonLineWriter& w, const std::vector<CruId>& cut, const CruTree& tree) {
  w.begin_array("cut");
  for (const CruId v : cut) w.item_str(tree.node(v).name);
  w.end_array();
}

/// Remaps a cut from one tree into another by node *name* (names survive
/// perturbations, ids do not); nodes the perturbation removed are dropped.
std::vector<CruId> map_cut_by_name(const std::vector<CruId>& cut, const CruTree& from,
                                   const CruTree& to) {
  std::vector<CruId> out;
  out.reserve(cut.size());
  for (const CruId v : cut) {
    try {
      out.push_back(to.by_name(from.node(v).name));
    } catch (const InvalidArgument&) {
      // gone from the target tree
    }
  }
  return out;
}

/// The degraded answer: greedy_solve over `colouring`, warm-started from
/// `warm_candidate` when it survives as a valid cut (a stale cached optimum
/// that does not -- e.g. coverage changed under a satellite loss -- silently
/// falls back to the topmost start; leniency lives here, the heuristics stay
/// strict). Counts it for the tenant, marks the root span, and writes the
/// response tail: the heuristic's answer plus its provenance
/// ("path":"degraded", the fallback method, whether the cached optimum
/// seeded the climb). Mirrors add_solution_fields' field set minus the
/// session-only region stats. No wall-clock here either.
void answer_degraded(JsonLineWriter& w, obs::Span& root, TenantTelemetry& tt,
                     const Colouring& colouring, const SsbObjective& objective,
                     std::vector<CruId> warm_candidate) {
  // The fallback calls its heuristic directly, so it applies the check
  // SolvePlan::resolve gives every planned solve.
  objective.require_finite_for(colouring.tree().total_cost());
  if (!warm_candidate.empty()) {
    try {
      static_cast<void>(Assignment(colouring, warm_candidate));
    } catch (const InvalidArgument&) {
      warm_candidate.clear();
    }
  }
  const bool warm_started = !warm_candidate.empty();
  const LocalSearchResult res = greedy_solve(colouring, objective, warm_candidate);
  ++tt.degraded;
  ++tt.method_counts[static_cast<std::size_t>(SolveMethod::kGreedy)];
  root.attr("path", "degraded");
  w.field_str("path", "degraded");
  w.field_bool("degraded", true);
  w.field_str("fallback", method_name(SolveMethod::kGreedy));
  w.field_bool("warm_start", warm_started);
  w.field_bool("exact", false);
  w.field_num("objective", res.objective_value);
  w.field_num("host_time", res.delay.host_time);
  w.field_num("bottleneck", res.delay.bottleneck);
  add_cut(w, res.assignment.cut_nodes(), colouring.tree());
}

/// The entry a solve/perturb addresses, under a store.lookup span; a
/// reload from the spill tier counts toward `tt`. Throws on an unknown
/// instance.
SessionEntry& find_entry(SessionStore& store, const std::string& tenant,
                         const std::string& instance, TenantTelemetry& tt) {
  bool reloaded = false;
  SessionEntry* entry = nullptr;
  {
    // Any spill.reload span the store opens nests under this one.
    obs::Span span(obs::trace(), "store.lookup");
    entry = store.find(tenant, instance, &reloaded);
    span.attr("reloaded", std::uint64_t{reloaded ? 1u : 0u});
  }
  if (entry == nullptr) {
    throw InvalidArgument("request: unknown instance '" + tenant + '/' + instance +
                          "' (submit it first)");
  }
  if (reloaded) ++tt.spill_reloads;
  return *entry;
}

/// Evicts down to the byte budget, sparing `keep`, and charges each victim
/// to its own tenant. Returns the number evicted.
std::size_t enforce_budget(SessionStore& store, ServiceTelemetry& telemetry,
                           const SessionEntry* keep) {
  const std::vector<EvictedEntry> victims = store.enforce_budget(keep);
  for (const EvictedEntry& e : victims) {
    TenantTelemetry& victim = telemetry.slot(e.tenant);
    ++victim.lru_evictions;
    if (e.spilled) ++victim.spills;
  }
  return victims.size();
}

/// The shared end of every solve/perturb response: the entry's bytes are
/// re-charged, the store evicts down to its budget sparing the entry, and
/// both land in the response.
void add_budget_fields(JsonLineWriter& w, SessionStore& store, ServiceTelemetry& telemetry,
                       SessionEntry& entry) {
  store.refresh_bytes(entry);
  const std::size_t lru_evicted = enforce_budget(store, telemetry, &entry);
  w.field_uint("bytes", entry.bytes);
  w.field_uint("lru_evicted", lru_evicted);
}

/// The shared tail of solve/perturb responses: the optimum and the
/// warm/cold provenance. Deliberately no wall-clock field -- the response
/// stream is byte-identity-checked across shard/thread counts.
void add_solution_fields(JsonLineWriter& w, const SessionEntry& entry, const char* path,
                         const ResolveStats& stats) {
  const SolveReport& report = entry.session->current();
  w.field_str("path", path);
  w.field_str("method", method_name(report.method));
  w.field_bool("exact", report.exact);
  w.field_num("objective", report.objective_value);
  w.field_num("host_time", report.delay.host_time);
  w.field_num("bottleneck", report.delay.bottleneck);
  add_cut(w, report.assignment.cut_nodes(), entry.session->tree());
  w.field_uint("regions_total", stats.regions_total);
  w.field_uint("regions_reused", stats.regions_reused);
  w.field_uint("regions_recomputed", stats.regions_recomputed);
  w.field_str("cold_reason", stats.cold_reason);
}

}  // namespace

std::string SolverService::handle_line(const std::string& line) {
  return handle(line).line;
}

std::size_t SolverService::serve(std::istream& in, std::ostream& out) {
  std::size_t errors = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const Outcome outcome = handle(line);
    out << outcome.line << '\n';
    if (!outcome.ok) {
      ++errors;
      if (options_.fail_fast) break;
    }
  }
  out.flush();
  return errors;
}

void SolverService::refresh_store_gauges() {
  telemetry_.mem_budget = store_.mem_budget();
  telemetry_.bytes_used = store_.bytes_used();
  telemetry_.entries = store_.entries();
  telemetry_.sessions = store_.sessions();
  telemetry_.spill_budget = store_.spill_budget();
  telemetry_.spill_bytes = store_.spill_bytes();
  telemetry_.spill_entries = store_.spill_entries();
  telemetry_.spills = store_.spills();
  telemetry_.spill_reloads = store_.spill_reloads();
  telemetry_.spill_drops = store_.spill_drops();
  telemetry_.spill_faults = store_.spill_faults();
  telemetry_.restore_faults = store_.restore_faults();
}

const ServiceTelemetry& SolverService::telemetry() {
  refresh_store_gauges();
  // The installed registry's service families are written from these same
  // values, so an exposition (metrics op, --metrics-out) reads what this
  // document says; a counter family appears with its first non-zero value.
  if (obs::MetricsRegistry* m = obs::metrics()) {
    const auto write = [m](std::string_view family, std::string_view help, std::size_t value) {
      const auto det = obs::MetricClass::kDeterministic;
      if (family.ends_with("_total")) {
        m->set_counter(family, help, det, value);
      } else if (!family.empty()) {
        m->gauge(family, help, det).set(static_cast<double>(value));
      }
    };
    for (const ServiceGauge& g : kServiceGauges) write(g.family, g.help, telemetry_.*g.member);
    const TenantTelemetry totals = telemetry_.totals();
    for (const TenantCounter& c : kTenantCounters) write(c.family, c.help, totals.*c.member);
  }
  return telemetry_;
}

void SolverService::checkpoint_to(const std::string& dir) {
  write_checkpoint(dir, store_, telemetry_, next_id_);
}

void SolverService::restore_from(const std::string& dir) {
  // The live fault plan travels across the restore: its trial counters keep
  // advancing where they were (a restored replay injects the same schedule
  // a non-restored one would), and kRestoreRead fires per manifest row.
  FaultPlan faults = store_.fault_plan();
  RestoredService restored = read_checkpoint(dir, options_.shards, options_.mem_budget,
                                             options_.spill_dir, options_.spill_budget,
                                             &faults);
  store_ = std::move(restored.store);
  store_.set_fault_plan(std::move(faults));
  telemetry_ = std::move(restored.telemetry);
  // Ids never move backwards: a mid-stream restore keeps the live stream's
  // numbering when it is already ahead of the checkpoint's.
  next_id_ = std::max(next_id_, restored.next_id);
}

SolverService::Outcome SolverService::handle(const std::string& line) {
  const std::size_t id = ++next_id_;
  ++telemetry_.requests;
  const Stopwatch watch;
  std::string op;
  std::string tenant;
  Outcome outcome;
  try {
    const RequestObject req = RequestObject::parse(line);
    op = req.string_at("op");
    tenant = req.string_or("tenant", "");
    // Root span: everything this request triggers (store lookup, spill
    // reload, DP phases) nests underneath via the thread-local current
    // span. Attributes are deterministic only -- id is the deterministic
    // request number, never a clock.
    const std::string root_name = "req." + op;
    obs::Span root(obs::trace(), root_name);
    root.attr("id", static_cast<std::uint64_t>(id));
    if (!tenant.empty()) root.attr("tenant", tenant);
    TenantTelemetry* tt = nullptr;
    if (!tenant.empty()) {
      require_id("tenant", tenant);
      tt = &telemetry_.slot(tenant);
      ++tt->requests;
    }

    // Admission deadline, mirroring the executor: checked before the
    // request starts, never interrupting a running solve. The effective
    // budget is the service deadline tightened by the request's own
    // deadline_ms, both measured from service start (the protocol is
    // open-loop: a request's useful-by time is relative to the stream).
    double limit = options_.deadline_seconds;
    if (req.has("deadline_ms")) {
      const double ms = req.number_at("deadline_ms");
      if (!std::isfinite(ms) || ms < 0.0) {
        throw InvalidArgument(
            "request: 'deadline_ms' must be a finite non-negative number");
      }
      if (ms > 0.0) {
        const double request_limit = ms / 1e3;
        limit = limit > 0.0 ? std::min(limit, request_limit) : request_limit;
      }
    }
    // SLA decisions, solver work only (submit/stats/evict/checkpoint/
    // restore are cheap bookkeeping and always admitted -- service.hpp).
    // The recorded form first: "degrade":true in the request forces the
    // degraded path unconditionally, even with degrade=off, which is how a
    // wall-clock degradation, once observed, replays byte-identically (the
    // decision travels in the trace, not in the clock). Then the wall-clock
    // form: an expired budget degrades under degrade=greedy and rejects
    // under degrade=off.
    const bool solver_op = op == "solve" || op == "perturb";
    bool degrade_now = solver_op && req.bool_or("degrade", false);
    if (solver_op && !degrade_now && limit > 0.0 && since_start_.seconds() >= limit) {
      if (options_.degrade == DegradeMode::kOff) {
        if (tt != nullptr) ++tt->rejected;
        throw ResourceLimit("deadline: request " + std::to_string(id) +
                            " arrived after its admission budget expired; not started");
      }
      degrade_now = true;
    }

    JsonLineWriter w;
    w.field_uint("id", id).field_str("op", op).field_bool("ok", true);

    if (op == "submit") {
      if (tt == nullptr) throw InvalidArgument("request: 'submit' needs a tenant");
      const std::string& instance = req.string_at("instance");
      require_id("instance", instance);
      ++tt->submits;
      CruTree tree = tree_from_text(req.string_at("tree"));
      // Satellite ids size every solve's per-colour state, so a client may
      // not name more satellites than its tree has nodes. (tree_from_text
      // cannot check this: a spilled tree that lost satellites may
      // legitimately carry ids past its node count.)
      if (tree.satellite_count() > tree.size()) {
        throw InvalidArgument("request: field 'tree' names " +
                              std::to_string(tree.satellite_count()) + " satellites in " +
                              std::to_string(tree.size()) +
                              " nodes; satellite ids must stay below the node count");
      }
      const std::size_t incoming = SessionStore::estimate_bytes(tree, nullptr);
      if (store_.mem_budget() != 0 && incoming > store_.mem_budget()) {
        throw ResourceLimit("admission: instance '" + instance + "' needs " +
                            std::to_string(incoming) + " bytes but the budget is " +
                            std::to_string(store_.mem_budget()));
      }
      // Tier-agnostic existence check (no reload: put() replaces warm
      // state in both tiers anyway, so reloading first would be waste).
      const bool replaced = store_.contains(tenant, instance);
      SessionEntry& entry = store_.put(tenant, instance, std::move(tree));
      const std::size_t lru_evicted = enforce_budget(store_, telemetry_, &entry);
      w.field_str("tenant", tenant).field_str("instance", instance);
      w.field_uint("nodes", entry.current_tree().size());
      w.field_uint("sensors", entry.current_tree().sensor_count());
      w.field_uint("satellites", entry.current_tree().satellite_count());
      w.field_uint("bytes", entry.bytes);
      w.field_bool("replaced", replaced);
      w.field_uint("lru_evicted", lru_evicted);
    } else if (op == "solve") {
      if (tt == nullptr) throw InvalidArgument("request: 'solve' needs a tenant");
      const std::string& instance = req.string_at("instance");
      ++tt->solves;
      // The plan is validated before the store is consulted: a typo'd spec
      // is the request's own defect and should be diagnosed as such even
      // when the instance is unknown too.
      const SolvePlan plan =
          req.has("plan") ? parse_plan(req.string_at("plan")) : default_plan_;
      const std::string canonical = session_plan_key(plan);
      SessionEntry& entry = find_entry(store_, tenant, instance, *tt);

      if (degrade_now) {
        // Degraded solve: the cheap heuristic over the current tree,
        // warm-started from the session's cached optimum. The warm session
        // itself is deliberately untouched -- the expensive state stays
        // resident for when the pressure lifts, and the next full solve is
        // still a warm hit.
        const Colouring colouring(entry.current_tree());
        const SsbObjective objective = entry.session != nullptr
                                           ? entry.session->plan().objective()
                                           : plan.objective();
        std::vector<CruId> warm;
        if (entry.session != nullptr) {
          warm = entry.session->current().assignment.cut_nodes();
        }
        w.field_str("tenant", tenant).field_str("instance", instance);
        answer_degraded(w, root, *tt, colouring, objective, std::move(warm));
      } else {
        const char* path = "cached";
        ResolveStats stats;
        if (entry.session == nullptr) {
          // First solve: materialize the warm session from the submitted
          // tree. Built from a copy so a solver failure (resource cap) keeps
          // the entry usable for a retry under another plan.
          entry.session = std::make_unique<ResolveSession>(CruTree(*entry.tree), plan);
          entry.tree.reset();
          entry.plan_spec = canonical;
          path = "initial";
          stats = entry.session->last_stats();
          ++tt->initial_solves;
          ++tt->method_counts[static_cast<std::size_t>(entry.session->current().method)];
        } else if (entry.plan_spec != canonical) {
          // A new plan cannot reuse the old session's state (its caches and
          // incumbents belong to the old options): rebuild cold on the
          // session's current (perturbation-evolved) tree.
          auto rebuilt = std::make_unique<ResolveSession>(CruTree(entry.session->tree()), plan);
          entry.session = std::move(rebuilt);
          entry.plan_spec = canonical;
          path = "cold";
          stats = entry.session->last_stats();
          stats.cold_reason = "plan changed; session rebuilt";
          ++tt->cold_solves;
          ++tt->method_counts[static_cast<std::size_t>(entry.session->current().method)];
        } else {
          // Same plan, unperturbed instance: the whole point of the warm
          // store -- served straight from the session.
          stats = entry.session->last_stats();
          stats.regions_reused = stats.regions_total;
          stats.regions_recomputed = 0;
          stats.cold_reason.clear();
          ++tt->warm_hits;
        }
        root.attr("path", path);
        w.field_str("tenant", tenant).field_str("instance", instance);
        add_solution_fields(w, entry, path, stats);
      }
      add_budget_fields(w, store_, telemetry_, entry);
    } else if (op == "perturb") {
      if (tt == nullptr) throw InvalidArgument("request: 'perturb' needs a tenant");
      const std::string& instance = req.string_at("instance");
      ++tt->perturbs;
      SessionEntry& entry = find_entry(store_, tenant, instance, *tt);
      const Perturbation p = parse_perturbation(req, entry.current_tree());
      w.field_str("tenant", tenant).field_str("instance", instance);
      w.field_str("kind", p.kind_name());
      if (degrade_now) {
        // Degraded perturb: the perturbation still applies (dropping it
        // would fork the instance's evolution from what the trace says
        // happened), the answer comes from the cheap heuristic, and the
        // entry demotes to tree-only -- the cheap path builds no warm
        // state, and the old session's caches describe the
        // pre-perturbation instance. The next full solve is an "initial"
        // rebuild.
        CruTree evolved = apply_perturbation(entry.current_tree(), p);
        const Colouring colouring(evolved);
        const SsbObjective objective = entry.session != nullptr
                                           ? entry.session->plan().objective()
                                           : default_plan_.objective();
        std::vector<CruId> warm;
        if (entry.session != nullptr) {
          warm = map_cut_by_name(entry.session->current().assignment.cut_nodes(),
                                 entry.session->tree(), evolved);
        }
        w.field_bool("solved", true);
        answer_degraded(w, root, *tt, colouring, objective, std::move(warm));
        entry.session.reset();
        entry.plan_spec.clear();
        entry.tree = std::make_unique<CruTree>(std::move(evolved));
      } else if (entry.session != nullptr) {
        entry.session->resolve(p);
        const ResolveStats& stats = entry.session->last_stats();
        const bool warm = stats.path == ResolvePath::kWarm;
        ++(warm ? tt->warm_hits : tt->cold_solves);
        ++tt->method_counts[static_cast<std::size_t>(entry.session->current().method)];
        w.field_bool("solved", true);
        root.attr("path", resolve_path_name(stats.path));
        add_solution_fields(w, entry, resolve_path_name(stats.path), stats);
      } else {
        // Not solved yet: evolve the stored tree so the eventual first
        // solve sees the current instance.
        entry.tree = std::make_unique<CruTree>(apply_perturbation(*entry.tree, p));
        w.field_bool("solved", false);
        w.field_uint("nodes", entry.tree->size());
      }
      add_budget_fields(w, store_, telemetry_, entry);
    } else if (op == "stats") {
      // A request that names a tenant is scoped to that tenant's own block.
      refresh_store_gauges();
      w.field_raw("stats", service_telemetry_to_json(telemetry_, tenant));
    } else if (op == "evict") {
      if (tt == nullptr) throw InvalidArgument("request: 'evict' needs a tenant");
      const std::string& instance = req.string_at("instance");
      ++tt->evict_requests;
      const bool drop = req.bool_or("drop", false);
      const std::size_t spills_before = store_.spills();
      const EvictFate fate = store_.evict(tenant, instance, drop);
      const bool evicted = fate != EvictFate::kAbsent;
      if (evicted) ++tt->explicit_evictions;
      // Attribute an actual spill write (not an already-spilled no-op).
      if (store_.spills() > spills_before) ++tt->spills;
      w.field_str("tenant", tenant).field_str("instance", instance);
      w.field_bool("evicted", evicted);
      w.field_str("fate", fate == EvictFate::kAbsent    ? "absent"
                          : fate == EvictFate::kDropped ? "dropped"
                                                        : "spilled");
    } else if (op == "metrics") {
      // Prometheus text of the installed registry's deterministic families,
      // so the response stays inside the byte-identity contract at any
      // shard/thread count; the wall-clock families leave only through
      // --metrics-out. Empty string when no registry is installed (the op
      // stays valid so clients can probe without knowing how the server
      // was launched).
      std::string text;
      if (obs::MetricsRegistry* m = obs::metrics()) {
        static_cast<void>(telemetry());  // writes the service families into the registry
        text = m->exposition(/*include_wallclock=*/false);
      }
      w.field_str("metrics", text);
    } else if (op == "checkpoint") {
      const std::string& dir = req.string_at("dir");
      checkpoint_to(dir);
      w.field_str("dir", dir);
      w.field_uint("entries", store_.entries());
      w.field_uint("spilled", store_.spill_entries());
    } else if (op == "restore") {
      const std::string& dir = req.string_at("dir");
      restore_from(dir);
      w.field_str("dir", dir);
      w.field_uint("entries", store_.entries());
      w.field_uint("sessions", store_.sessions());
      w.field_uint("spilled", store_.spill_entries());
      w.field_uint("next_id", next_id_);
    } else {
      throw InvalidArgument(
          "request: unknown op '" + op +
          "' (submit, solve, perturb, stats, metrics, evict, checkpoint, restore)");
    }

    static const obs::HistogramSite request_seconds(
        "treesat_request_seconds", "Wall-clock solve/perturb request latency in seconds",
        obs::MetricClass::kWallClock, 1e-6);
    if (solver_op) request_seconds.observe(watch.seconds());
    outcome = {w.finish(), true};
  } catch (const std::exception& e) {
    ++telemetry_.errors;
    if (!tenant.empty() && tenant.find('/') == std::string::npos) {
      ++telemetry_.slot(tenant).errors;
    }
    JsonLineWriter w;
    w.field_uint("id", id);
    w.field_str("op", op.empty() ? "?" : op);
    w.field_bool("ok", false);
    w.field_str("error", e.what());
    outcome = {w.finish(), false};
  }
  static const obs::HistogramSite response_bytes("treesat_response_bytes",
                                                 "Response line sizes in bytes",
                                                 obs::MetricClass::kDeterministic);
  response_bytes.observe(static_cast<double>(outcome.line.size()));
  return outcome;
}

}  // namespace treesat
