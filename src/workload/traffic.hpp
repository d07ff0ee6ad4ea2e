// Deterministic open-loop traffic for treesat-serve: mixed-tenant request
// traces in the service's line protocol (service/service.hpp).
//
// A trace composes the scenario library (workload/scenarios.hpp) with the
// drift-stream machinery of PR 3 (workload/drift.hpp): each tenant runs one
// scenario's workload as a live instance, perturbs it along a deterministic
// drift stream, re-solves, occasionally polls stats, and occasionally
// churns (evict + resubmit of the *evolved* tree + solve -- the cold
// restart a real deployment performs when a tenant reconnects; a plain
// solve when the service would refuse that tree's submit). Open-loop
// means the trace is fixed up front, independent of any response: that is
// what lets the same trace replay byte-identically against any service
// configuration (tests/service_determinism_test.cpp) and drive the
// throughput gate (bench/bench_service_throughput.cpp).
//
// Determinism: the trace is a pure function of TrafficOptions -- tenant
// streams fork one Rng per tenant exactly like standard_drift_streams, the
// interleaving draws from the trace's own Rng, and all numbers are
// formatted shortest-round-trip.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workload/drift.hpp"

namespace treesat {

struct TrafficOptions {
  std::uint64_t seed = 0x5EC7;
  /// Live tenants, named "t0", "t1", ...; tenant k runs the k-th standard
  /// scenario (cycling when tenants outnumber scenarios).
  std::size_t tenants = 3;
  /// Interleaving ticks after the per-tenant warm-up (submit + solve).
  /// Most ticks emit one line; a churn tick emits three (evict, submit,
  /// solve).
  std::size_t ticks = 200;
  double p_solve = 0.15;  ///< plain re-solve of the current instance
  double p_stats = 0.05;  ///< tenant-scoped stats poll
  double p_churn = 0.03;  ///< evict + resubmit(evolved) + solve
  /// Everything else is a perturb request drawn from the tenant's drift
  /// stream, shaped by these options (steps is ignored: streams are sized
  /// to the tick budget).
  DriftOptions drift;
  /// Per-request plan spec carried on every solve request; empty = let the
  /// service apply its default plan.
  std::string plan;
};

/// One generated trace plus its composition counters (the denominators the
/// bench's warm-hit gate reasons about).
struct TrafficTrace {
  std::vector<std::string> lines;  ///< request lines, protocol order
  std::size_t submits = 0;
  std::size_t solves = 0;
  std::size_t perturbs = 0;
  std::size_t stats_polls = 0;
  std::size_t evicts = 0;
  std::size_t degrade_flags = 0;   ///< solve/perturb lines carrying "degrade":true
};

/// Generates a deterministic mixed-tenant trace.
[[nodiscard]] TrafficTrace traffic_trace(const TrafficOptions& options = {});

/// One perturb request line applying drift-stream perturbation `p` to
/// `current`, the instance's tree before it. Insert parents travel by node
/// *name* (stable under id compaction); the probe shape mirrors
/// Perturbation::insert_probe, the only insertion drift_stream generates.
[[nodiscard]] std::string perturb_line(const std::string& tenant, const std::string& instance,
                                       const CruTree& current, const Perturbation& p,
                                       bool degrade = false);

/// The adversarial stress universe: everything the overload work is tested
/// against, in one deterministic trace.
///
/// Where traffic_trace models a polite open-loop mix, stress_trace models
/// the traffic that hurts:
///   * closed-loop clients -- each tenant has a bounded in-flight window
///     (issued minus completed, completions drained FIFO at a fixed rate),
///     so a backed-up tenant stops issuing instead of queueing unboundedly,
///     exactly like a real client with bounded concurrency;
///   * Zipf tenant popularity -- rank-k tenant drawn with weight 1/k^s, so
///     a couple of heavy hitters dominate while the tail stays warm-cold;
///   * diurnal phases with bursts -- arrivals per tick follow a {1,2,3,2}
///     wave over phase_ticks-sized phases, and every burst_every-th phase
///     slams window*2 arrivals per tick;
///   * pathological instances -- tenants cycle deep chains (chain_tree),
///     wide stars (star_tree), colour-skewed trees (skewed_tree) and the
///     scenario library, with log-uniform sizes in [min_nodes, max_nodes].
///
/// Still open-loop *text*: the closed loop is simulated at generation time,
/// so the emitted trace replays byte-identically like any other. A
/// p_degrade > 0 stamps that fraction of solve/perturb lines with the
/// recorded degradation decision ("degrade":true, service.hpp), which is
/// how the determinism suite drives the degraded paths without a wall
/// clock.
struct StressOptions {
  std::uint64_t seed = 0x57E55;
  std::size_t tenants = 8;
  /// Arrival slots to issue after the per-tenant warm-up (a churn arrival
  /// emits three lines but occupies one slot).
  std::size_t requests = 400;
  double zipf_exponent = 1.1;    ///< tenant popularity skew (s in 1/k^s)
  std::size_t window = 4;        ///< per-tenant in-flight bound (>= 1)
  std::size_t completions_per_tick = 2;  ///< FIFO drain rate of the closed loop
  std::size_t phase_ticks = 32;  ///< ticks per diurnal phase
  std::size_t burst_every = 4;   ///< every Nth phase is a burst (0 = never)
  std::size_t min_nodes = 64;    ///< log-uniform instance size range
  std::size_t max_nodes = 2048;
  double p_solve = 0.2;
  double p_stats = 0.02;
  double p_churn = 0.02;
  /// Fraction of solve/perturb lines that record "degrade":true.
  double p_degrade = 0.0;
  DriftOptions drift;
  std::string plan;
};

/// Generates the deterministic adversarial trace described above.
[[nodiscard]] TrafficTrace stress_trace(const StressOptions& options = {});

}  // namespace treesat
