// Per-tenant service telemetry: the counters a capacity planner reads off a
// running treesat-serve. Collected by SolverService (service/service.hpp),
// rendered as the `stats` document by service_telemetry_to_json
// (service/telemetry.cpp) and persisted by checkpoints
// (storage/checkpoint.hpp).
//
// Everything here is a counter or a gauge, and each is a pure function of
// the request stream (requests, warm/cold outcomes, evictions, per-method
// solves, bytes), so every `stats` response is covered by the service's
// byte-identity contract. Request latency is wall-clock and lives in the
// metrics registry instead: its treesat_request_seconds histogram leaves
// the process through --metrics-out, span timings through --trace-out.
// This is the only place a service event is counted: the scrape's service
// families are written from these counters (SolverService::telemetry()), so
// the scrape says what `stats` says, across a restore too.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "core/plan.hpp"

namespace treesat {

/// One tenant's counters.
struct TenantTelemetry {
  std::size_t requests = 0;   ///< lines addressed to this tenant
  std::size_t errors = 0;     ///< ...that produced an error response
  std::size_t submits = 0;
  std::size_t solves = 0;     ///< solve requests
  std::size_t perturbs = 0;   ///< perturb requests
  std::size_t evict_requests = 0;

  // Outcomes of the requests that produced (or reused) an optimum.
  std::size_t initial_solves = 0;  ///< first solve of an instance (session built)
  std::size_t warm_hits = 0;       ///< served from warm session state
  std::size_t cold_solves = 0;     ///< session existed but nothing reusable survived

  std::size_t lru_evictions = 0;      ///< sessions this tenant lost to the byte budget
  std::size_t explicit_evictions = 0; ///< sessions dropped by an evict request
  std::size_t spills = 0;             ///< sessions written to the spill tier
  std::size_t spill_reloads = 0;      ///< sessions reloaded from the spill tier

  // SLA outcomes of the admission budget (service.hpp DegradeMode): a
  // rejected solve/perturb got an error response; a degraded one got a
  // cheap-heuristic answer flagged "degraded":true.
  std::size_t degraded = 0;  ///< solve/perturb served by the degrade fallback
  std::size_t rejected = 0;  ///< solve/perturb refused by admission control

  /// Solves per method that ran for this tenant, indexed by SolveMethod.
  std::array<std::size_t, kSolveMethodCount> method_counts{};

  /// Warm share of the re-solve traffic (initial solves are neither: a cold
  /// start is not a cache miss the store could have avoided). 0 when no
  /// re-solve happened yet.
  [[nodiscard]] double warm_hit_ratio() const {
    const std::size_t resolves = warm_hits + cold_solves;
    return resolves == 0 ? 0.0
                         : static_cast<double>(warm_hits) / static_cast<double>(resolves);
  }

  /// Goodput: the share of solver work that got an answer -- full or
  /// degraded -- instead of an admission rejection. A rejected request
  /// never reaches its op branch, so it is not in solves/perturbs; the
  /// attempt denominator adds it back. 1 when the tenant never asked for
  /// solver work; the overload bench gates this at >= 0.95 under a
  /// deadline that rejects >= 30% bare.
  [[nodiscard]] double goodput_ratio() const {
    const std::size_t answered = solves + perturbs;
    const std::size_t attempts = answered + rejected;
    if (attempts == 0) return 1.0;
    return static_cast<double>(answered) / static_cast<double>(attempts);
  }

  /// Adds every counter of `other`, method counts included.
  void merge(const TenantTelemetry& other);
};

/// One counter or gauge of the stats document, declared once: its field
/// name, the member of `Owner` that holds it and, when the scrape carries it,
/// that family's name and help text. A family named *_total is a counter,
/// the others are gauges (Prometheus' convention).
template <typename Owner>
struct StatsField {
  std::string_view name;
  std::size_t Owner::*member;
  std::string_view family{};  ///< empty: not scraped
  std::string_view help{};
};

/// The tenant counters; the scrape carries service-wide totals. Row order is
/// the order of the stats tenant block and of a checkpoint tenant row; the
/// table drives merge(), the stats renderer, the scrape and both halves of
/// the checkpoint row codec, so a new counter is a struct member plus a row.
using TenantCounter = StatsField<TenantTelemetry>;
inline constexpr TenantCounter kTenantCounters[] = {
    {"requests", &TenantTelemetry::requests},
    {"errors", &TenantTelemetry::errors},
    {"submits", &TenantTelemetry::submits},
    {"solves", &TenantTelemetry::solves},
    {"perturbs", &TenantTelemetry::perturbs},
    {"evict_requests", &TenantTelemetry::evict_requests},
    {"initial_solves", &TenantTelemetry::initial_solves,
     "treesat_initial_solves_total", "First solves of an instance"},
    {"warm_hits", &TenantTelemetry::warm_hits,
     "treesat_warm_hits_total", "Solver requests served from warm session state"},
    {"cold_solves", &TenantTelemetry::cold_solves,
     "treesat_cold_solves_total", "Re-solves that could reuse nothing warm"},
    {"lru_evictions", &TenantTelemetry::lru_evictions},
    {"explicit_evictions", &TenantTelemetry::explicit_evictions},
    {"spills", &TenantTelemetry::spills},
    {"spill_reloads", &TenantTelemetry::spill_reloads},
    {"degraded", &TenantTelemetry::degraded,
     "treesat_degraded_total", "Solver requests served by the degrade fallback"},
    {"rejected", &TenantTelemetry::rejected,
     "treesat_rejected_total", "Solver requests refused by admission control"},
};

inline void TenantTelemetry::merge(const TenantTelemetry& other) {
  for (const TenantCounter& counter : kTenantCounters) {
    this->*counter.member += other.*counter.member;
  }
  for (std::size_t m = 0; m < method_counts.size(); ++m) {
    method_counts[m] += other.method_counts[m];
  }
}

/// The whole service's view: per-tenant counters (std::map: deterministic
/// serialization order) plus the store-level gauges.
///
/// Tenant tracking is bounded: the first kMaxTrackedTenants distinct
/// tenant names get their own section; everything past the cap aggregates
/// into `overflow` (reported as one "(overflow)" section with a distinct
/// tenant count). Without the cap, a client bug -- or an adversary --
/// rotating tenant names per request would grow service memory and every
/// stats response without limit, sidestepping the store's byte budget.
struct ServiceTelemetry {
  static constexpr std::size_t kMaxTrackedTenants = 1024;

  std::map<std::string, TenantTelemetry, std::less<>> tenants;
  /// Aggregate of every tenant past the cap; counters only, no per-name
  /// split (storing the names would be the very unbounded growth the cap
  /// exists to prevent -- overflow.requests measures the volume).
  TenantTelemetry overflow;

  /// The mutable slot for `tenant`: its own entry while the cap allows,
  /// the shared overflow bucket afterwards. Deterministic: which names
  /// land in overflow is a pure function of first-appearance order.
  [[nodiscard]] TenantTelemetry& slot(const std::string& tenant) {
    const auto it = tenants.find(tenant);
    if (it != tenants.end()) return it->second;
    if (tenants.size() < kMaxTrackedTenants) return tenants[tenant];
    return overflow;
  }

  std::size_t mem_budget = 0;   ///< bytes; 0 = unlimited
  std::size_t bytes_used = 0;   ///< store accounting after the last request
  std::size_t entries = 0;      ///< resident instances (warm or not)
  std::size_t sessions = 0;     ///< ...of which hold a live ResolveSession
  // Spill-tier gauges and lifetime counters (session_store.hpp). Spill
  // file sizes derive from the deterministic snapshot encoding, so these
  // stay inside the byte-identity contract too.
  std::size_t spill_budget = 0;   ///< bytes; 0 = unlimited (or tier disabled)
  std::size_t spill_bytes = 0;    ///< snapshot bytes currently spilled
  std::size_t spill_entries = 0;  ///< sessions currently in the spill tier
  std::size_t spills = 0;         ///< lifetime spill writes
  std::size_t spill_reloads = 0;  ///< lifetime reloads back into memory
  std::size_t spill_drops = 0;    ///< spilled sessions lost to the spill budget
  // Fault-wall gauges (session_store.hpp): storage failures -- injected or
  // real -- absorbed as cold re-solves instead of failed requests.
  std::size_t spill_faults = 0;    ///< spill writes/reloads that degraded cold
  std::size_t restore_faults = 0;  ///< checkpoint snapshots skipped on restore
  std::size_t requests = 0;     ///< all request lines, unattributable included
  std::size_t errors = 0;

  /// Sum over tenants, overflow included (the global row of the stats
  /// response).
  [[nodiscard]] TenantTelemetry totals() const {
    TenantTelemetry t;
    for (const auto& [name, tenant] : tenants) t.merge(tenant);
    t.merge(overflow);
    return t;
  }
};

/// The stats document's gauge block, in order; it drives the block and the
/// scrape.
using ServiceGauge = StatsField<ServiceTelemetry>;
inline constexpr ServiceGauge kServiceGauges[] = {
    // mem_budget stays in the document: it shapes the eviction behavior the
    // surrounding counters describe.
    {"mem_budget", &ServiceTelemetry::mem_budget},
    {"bytes_used", &ServiceTelemetry::bytes_used,
     "treesat_store_bytes_used", "Resident session-store bytes"},
    {"entries", &ServiceTelemetry::entries,
     "treesat_store_entries", "Resident instances (warm or not)"},
    {"sessions", &ServiceTelemetry::sessions,
     "treesat_store_sessions", "Resident entries holding a live ResolveSession"},
    {"spill_budget", &ServiceTelemetry::spill_budget},
    {"spill_bytes", &ServiceTelemetry::spill_bytes,
     "treesat_store_spill_bytes", "Snapshot bytes currently in the spill tier"},
    {"spill_entries", &ServiceTelemetry::spill_entries},
    {"spills", &ServiceTelemetry::spills,
     "treesat_spills_total", "Sessions written to the spill tier"},
    {"spill_reloads", &ServiceTelemetry::spill_reloads,
     "treesat_spill_reloads_total", "Sessions reloaded warm from the spill tier"},
    {"spill_drops", &ServiceTelemetry::spill_drops},
    {"spill_faults", &ServiceTelemetry::spill_faults,
     "treesat_spill_faults_total", "Spill writes/reloads that degraded to a cold re-solve"},
    {"restore_faults", &ServiceTelemetry::restore_faults,
     "treesat_restore_faults_total", "Checkpoint snapshots skipped during restore"},
    {"requests", &ServiceTelemetry::requests,
     "treesat_requests_total", "Request lines handled"},
    {"errors", &ServiceTelemetry::errors,
     "treesat_request_errors_total", "Requests that produced an error response"},
};

/// The telemetry document of a stats response: store gauges, the global
/// totals, one section per tracked tenant, plus an "(overflow)" section
/// when the tenant cap was exceeded. A non-empty `tenant` scopes it: the
/// same gauges, with `totals` and `tenants` carrying only that tenant's
/// own block (zero totals and no section when the tenant is past the cap).
/// The overflow aggregate mixes other tenants' counters, so it never
/// appears in a scoped document. No shard-count echo: the document holds
/// only stream-determined data, so it is byte-identical at any shard count.
[[nodiscard]] std::string service_telemetry_to_json(const ServiceTelemetry& telemetry,
                                                    std::string_view tenant = {});

}  // namespace treesat
