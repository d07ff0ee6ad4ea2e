#include "pipeline.hpp"

#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "core/colouring.hpp"
#include "core/registry.hpp"
#include "core/solver.hpp"
#include "io/json.hpp"
#include "service/protocol.hpp"
#include "storage/checkpoint.hpp"
#include "storage/snapshot.hpp"
#include "tree/serialize.hpp"

namespace perfbench {

using namespace treesat;

const char* layer_name(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {"service", "protocol", "tree", "store",
                                                      "core",    "storage",  "probe"};
  return kNames[static_cast<std::size_t>(layer)];
}

namespace {

struct SpanInfo {
  const char* name;
  Layer layer;
};

constexpr SpanInfo kSpans[kSpanNameCount] = {
    {"req", Layer::kService},
    {"protocol.parse", Layer::kProtocol},
    {"protocol.emit", Layer::kProtocol},
    {"tree.parse", Layer::kTree},
    {"store.put", Layer::kStore},
    {"store.lookup", Layer::kStore},
    {"store.refresh", Layer::kStore},
    {"store.budget", Layer::kStore},
    {"store.evict", Layer::kStore},
    {"core.initial", Layer::kCore},
    {"core.resolve_warm", Layer::kCore},
    {"core.resolve_cold", Layer::kCore},
    {"core.evolve", Layer::kCore},
    {"storage.spill", Layer::kStorage},
    {"storage.reload", Layer::kStorage},
    {"probe.apply", Layer::kProbe},
    {"probe.codec", Layer::kProbe},
    {"probe.export", Layer::kProbe},
    {"probe.encode", Layer::kProbe},
    {"probe.io", Layer::kProbe},
    {"probe.decode", Layer::kProbe},
    {"probe.import", Layer::kProbe},
};

}  // namespace

const char* span_name(std::uint32_t name) { return kSpans[name].name; }
Layer span_layer(std::uint32_t name) { return kSpans[name].layer; }

/// RAII span over one layer call; rename() relabels it once the call's
/// outcome (a reload, a spill, the resolve path) is known.
class Scope {
 public:
  Scope(Pipeline& p, std::uint32_t name) : p_(p), index_(p.open(name)) {}
  ~Scope() { p_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void rename(std::uint32_t name) { p_.spans_[index_].name = name; }

 private:
  Pipeline& p_;
  std::uint32_t index_;
};

namespace {

/// The service's perturbation grammar (service.cpp parse_perturbation):
/// insert parents travel by node name.
Perturbation parse_perturbation(const RequestObject& req, const CruTree& tree) {
  const std::string& kind = req.string_at("kind");
  if (kind == "global_drift") {
    return Perturbation::global_drift(req.number_or("host_scale", 1.0),
                                      req.number_or("sat_scale", 1.0),
                                      req.number_or("comm_scale", 1.0));
  }
  if (kind == "satellite_drift") {
    return Perturbation::satellite_drift(SatelliteId{req.size_at("satellite")},
                                         req.number_or("host_scale", 1.0),
                                         req.number_or("sat_scale", 1.0),
                                         req.number_or("comm_scale", 1.0));
  }
  if (kind == "satellite_loss") {
    return Perturbation::satellite_loss(SatelliteId{req.size_at("satellite")});
  }
  if (kind == "insert_probe") {
    return Perturbation::insert_probe(tree.by_name(req.string_at("parent")),
                                      req.string_at("name"),
                                      SatelliteId{req.size_at("satellite")},
                                      req.number_or("host_time", 1.0),
                                      req.number_or("sat_time", 1.0),
                                      req.number_or("comm_up", 1.0),
                                      req.number_or("sensor_comm_up", 1.0));
  }
  throw InvalidArgument("unknown perturbation kind '" + kind + "'");
}

std::string cut_json(const std::vector<CruId>& cut, const CruTree& tree) {
  std::string out = "[";
  for (std::size_t i = 0; i < cut.size(); ++i) {
    if (i) out += ',';
    out += '"';
    out += json_escape(tree.node(cut[i]).name);
    out += '"';
  }
  out += ']';
  return out;
}

/// What a solve/perturb answers with, captured before emission.
struct Solution {
  const SessionEntry* entry = nullptr;
  const char* path = "";
  ResolveStats stats;
};

void emit_solution(JsonLineWriter& w, const Solution& s) {
  const SolveReport& report = s.entry->session->current();
  w.field_str("path", s.path);
  w.field_str("method", method_name(report.method));
  w.field_bool("exact", report.exact);
  w.field_num("objective", report.objective_value);
  w.field_num("host_time", report.delay.host_time);
  w.field_num("bottleneck", report.delay.bottleneck);
  w.field_raw("cut", cut_json(report.assignment.cut_nodes(), s.entry->session->tree()));
  w.field_uint("regions_total", s.stats.regions_total);
  w.field_uint("regions_reused", s.stats.regions_reused);
  w.field_uint("regions_recomputed", s.stats.regions_recomputed);
  w.field_str("cold_reason", s.stats.cold_reason);
}

}  // namespace

Pipeline::Pipeline(const ServiceOptions& options, bool probes, std::filesystem::path probe_dir)
    : options_(options),
      default_plan_(parse_plan(options.plan)),
      default_plan_key_(session_plan_key(default_plan_)),
      store_(options.shards, options.mem_budget, options.spill_dir, options.spill_budget),
      probes_(probes),
      probe_file_(std::move(probe_dir) / "probe.tss") {
  spans_.reserve(std::size_t{1} << 16);
}

void Pipeline::restore(const std::string& dir) {
  RestoredService restored = read_checkpoint(dir, options_.shards, options_.mem_budget,
                                             options_.spill_dir, options_.spill_budget);
  store_ = std::move(restored.store);
  next_id_ = std::max(next_id_, restored.next_id);
}

double Pipeline::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

std::uint32_t Pipeline::open(std::uint32_t name) {
  SpanRec s;
  s.name = name;
  s.parent = stack_.empty() ? SpanRec::kNoParent : stack_.back();
  s.request = request_;
  const auto index = static_cast<std::uint32_t>(spans_.size());
  stack_.push_back(index);
  spans_.push_back(s);
  spans_.back().start = now();
  return index;
}

void Pipeline::close(std::uint32_t index) {
  spans_[index].end = now();
  stack_.pop_back();
}

std::string Pipeline::handle(const std::string& line, std::uint32_t request) {
  request_ = request;
  ++counts_.requests;
  Scope root(*this, kReq);
  return handle_request(line);
}

void Pipeline::probe_codec(const SessionEntry& entry) {
  // The outer span also holds the intermediates' destruction, so none of
  // the probe's work lands in the request's own time.
  Scope outer(*this, kProbeCodec);
  SessionState state;
  {
    Scope s(*this, kProbeExport);
    state = session_entry_state(entry);
  }
  std::string bytes;
  {
    Scope s(*this, kProbeEncode);
    bytes = encode_snapshot(state);
  }
  counts_.snapshot_bytes += bytes.size();
  ++counts_.snapshot_probes;
  {
    Scope s(*this, kProbeIo);
    write_file_atomic(probe_file_.string(), bytes);
    bytes = read_file_bytes(probe_file_.string());
  }
  SessionState decoded;
  {
    Scope s(*this, kProbeDecode);
    decoded = decode_snapshot(bytes);
  }
  SessionEntry rebuilt;
  {
    Scope s(*this, kProbeImport);
    rebuilt = session_entry_from_state(decoded);
  }
  if (rebuilt.bytes != entry.bytes) {
    throw LogicError("codec probe: re-imported session charges " +
                     std::to_string(rebuilt.bytes) + " bytes, the reloaded one " +
                     std::to_string(entry.bytes));
  }
}

std::string Pipeline::handle_request(const std::string& line) {
  const std::size_t id = ++next_id_;
  std::string op;
  try {
    RequestObject req;
    {
      Scope s(*this, kProtocolParse);
      req = RequestObject::parse(line);
    }
    op = req.string_at("op");
    const std::string tenant = req.string_or("tenant", "");

    // Enforces the budget around `entry` and labels the call by outcome.
    const auto enforce = [&](const SessionEntry* entry) {
      Scope s(*this, kStoreBudget);
      std::size_t evicted = 0;
      for (const EvictedEntry& e : store_.enforce_budget(entry)) {
        ++evicted;
        if (e.spilled) ++counts_.spilled_sessions;
        if (e.spilled) s.rename(kStorageSpill);
      }
      return evicted;
    };
    const auto lookup = [&](const std::string& instance) {
      Scope s(*this, kStoreLookup);
      bool reloaded = false;
      SessionEntry* entry = store_.find(tenant, instance, &reloaded);
      if (reloaded) {
        s.rename(kStorageReload);
        ++counts_.reloads;
      } else if (entry != nullptr) {
        ++counts_.memory_hits;
      }
      if (entry == nullptr) throw InvalidArgument("unknown instance '" + instance + "'");
      return std::make_pair(entry, reloaded);
    };

    if (op == "submit") {
      const std::string& instance = req.string_at("instance");
      const std::string& text = req.string_at("tree");
      std::optional<CruTree> tree;
      {
        Scope s(*this, kTreeParse);
        tree.emplace(tree_from_text(text));
      }
      counts_.tree_text_bytes += text.size();
      bool replaced = false;
      SessionEntry* entry = nullptr;
      {
        Scope s(*this, kStorePut);
        replaced = store_.contains(tenant, instance);
        entry = &store_.put(tenant, instance, std::move(*tree));
      }
      const std::size_t evicted = enforce(entry);
      Scope s(*this, kProtocolEmit);
      JsonLineWriter w;
      w.field_uint("id", id).field_str("op", op).field_bool("ok", true);
      w.field_str("tenant", tenant).field_str("instance", instance);
      w.field_uint("nodes", entry->current_tree().size());
      w.field_uint("sensors", entry->current_tree().sensor_count());
      w.field_uint("satellites", entry->current_tree().satellite_count());
      w.field_uint("bytes", entry->bytes);
      w.field_bool("replaced", replaced);
      w.field_uint("lru_evicted", evicted);
      return w.finish();
    }

    if (op == "solve") {
      const std::string& instance = req.string_at("instance");
      // The benchmark's traces solve under the service's default plan.
      if (req.has("plan")) throw InvalidArgument("per-request plans are not replayed");
      auto [entry, reloaded] = lookup(instance);
      if (reloaded && probes_) probe_codec(*entry);
      Solution sol;
      sol.entry = entry;
      if (entry->session == nullptr) {
        Scope s(*this, kCoreInitial);
        entry->session = std::make_unique<ResolveSession>(CruTree(*entry->tree), default_plan_);
        entry->tree.reset();
        entry->plan_spec = default_plan_key_;
        sol.path = "initial";
        sol.stats = entry->session->last_stats();
        ++counts_.initial_solves;
      } else {
        sol.path = "cached";
        sol.stats = entry->session->last_stats();
        sol.stats.regions_reused = sol.stats.regions_total;
        sol.stats.regions_recomputed = 0;
        sol.stats.cold_reason.clear();
      }
      {
        Scope s(*this, kStoreRefresh);
        store_.refresh_bytes(*entry);
      }
      const std::size_t evicted = enforce(entry);
      Scope s(*this, kProtocolEmit);
      JsonLineWriter w;
      w.field_uint("id", id).field_str("op", op).field_bool("ok", true);
      w.field_str("tenant", tenant).field_str("instance", instance);
      emit_solution(w, sol);
      w.field_uint("bytes", entry->bytes);
      w.field_uint("lru_evicted", evicted);
      return w.finish();
    }

    if (op == "perturb") {
      const std::string& instance = req.string_at("instance");
      auto [entry, reloaded] = lookup(instance);
      if (reloaded && probes_) probe_codec(*entry);
      const Perturbation p = parse_perturbation(req, entry->current_tree());
      Solution sol;
      sol.entry = entry;
      if (entry->session != nullptr) {
        if (probes_) {
          Scope s(*this, kProbeApply);
          const CruTree evolved = apply_perturbation(entry->session->tree(), p);
          const Colouring colouring(evolved);
          static_cast<void>(colouring);
        }
        Scope s(*this, kCoreResolveWarm);
        entry->session->resolve(p);
        sol.stats = entry->session->last_stats();
        sol.path = resolve_path_name(sol.stats.path);
        const bool warm = sol.stats.path == ResolvePath::kWarm;
        if (!warm) s.rename(kCoreResolveCold);
        ++(warm ? counts_.resolves_warm : counts_.resolves_cold);
        counts_.regions_total += sol.stats.regions_total;
        counts_.regions_reused += sol.stats.regions_reused;
        counts_.colours_total += sol.stats.colours_total;
        counts_.colours_reused += sol.stats.colours_reused;
      } else {
        Scope s(*this, kCoreEvolve);
        entry->tree = std::make_unique<CruTree>(apply_perturbation(*entry->tree, p));
      }
      {
        Scope s(*this, kStoreRefresh);
        store_.refresh_bytes(*entry);
      }
      const std::size_t evicted = enforce(entry);
      Scope s(*this, kProtocolEmit);
      JsonLineWriter w;
      w.field_uint("id", id).field_str("op", op).field_bool("ok", true);
      w.field_str("tenant", tenant).field_str("instance", instance);
      w.field_str("kind", p.kind_name());
      if (entry->session != nullptr) {
        w.field_bool("solved", true);
        emit_solution(w, sol);
      } else {
        w.field_bool("solved", false);
        w.field_uint("nodes", entry->tree->size());
      }
      w.field_uint("bytes", entry->bytes);
      w.field_uint("lru_evicted", evicted);
      return w.finish();
    }

    if (op == "evict") {
      const std::string& instance = req.string_at("instance");
      EvictFate fate = EvictFate::kAbsent;
      {
        Scope s(*this, kStoreEvict);
        const std::size_t spills_before = store_.spills();
        fate = store_.evict(tenant, instance, req.bool_or("drop", false));
        if (store_.spills() > spills_before) {
          s.rename(kStorageSpill);
          ++counts_.spilled_sessions;
        }
      }
      Scope s(*this, kProtocolEmit);
      JsonLineWriter w;
      w.field_uint("id", id).field_str("op", op).field_bool("ok", true);
      w.field_str("tenant", tenant).field_str("instance", instance);
      w.field_bool("evicted", fate != EvictFate::kAbsent);
      w.field_str("fate", fate == EvictFate::kAbsent    ? "absent"
                          : fate == EvictFate::kDropped ? "dropped"
                                                        : "spilled");
      return w.finish();
    }

    if (op == "stats") {
      // The telemetry document is service-layer work; the pipeline only
      // frames the response.
      Scope s(*this, kProtocolEmit);
      JsonLineWriter w;
      w.field_uint("id", id).field_str("op", op).field_bool("ok", true);
      return w.finish();
    }
    throw InvalidArgument("op '" + op + "' is not part of the benchmark's traces");
  } catch (const std::exception& e) {
    ++counts_.errors;
    JsonLineWriter w;
    w.field_uint("id", id).field_str("op", op.empty() ? "?" : op).field_bool("ok", false);
    w.field_str("error", e.what());
    return w.finish();
  }
}

std::vector<std::string> Pipeline::warm_equals_cold() {
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, std::string>> spilled;
  for (const auto& [key, record] : store_.spill_records()) {
    spilled.emplace_back(record.tenant, record.instance);
  }
  for (const auto& [tenant, instance] : spilled) {
    static_cast<void>(store_.find(tenant, instance));
  }
  for (const SessionEntry* entry : store_.resident_by_key()) {
    if (entry->session == nullptr) continue;
    const ResolveSession& session = *entry->session;
    const Colouring colouring(session.tree());
    const SolveReport cold = solve(colouring, session.plan());
    const SolveReport& warm = session.current();
    const bool same_bits =
        std::memcmp(&cold.objective_value, &warm.objective_value, sizeof(double)) == 0;
    if (!same_bits || cold.assignment.cut_nodes() != warm.assignment.cut_nodes()) {
      failures.push_back("warm != cold for " + entry->tenant + "/" + entry->instance +
                         ": warm objective " + std::to_string(warm.objective_value) +
                         ", cold " + std::to_string(cold.objective_value));
    }
  }
  return failures;
}

}  // namespace perfbench
