// treesat-serve: the multi-tenant solver service.
//
// SolverService turns the library's one-shot solves into *served* state: a
// line-delimited JSON request protocol (service/protocol.hpp) over a
// sharded store of warm ResolveSessions (service/session_store.hpp), so a
// tenant's drifting workload re-solves against its live frontier caches
// instead of cold-starting on every request. Transport-agnostic by design:
// handle_line() maps one request line to one response line, serve() runs
// the loop over any istream/ostream pair (tools/treesat_serve.cpp is the
// stdin/file frontend; a socket frontend would call the same two methods).
//
// Request protocol (one flat JSON object per line; # lines and blank lines
// are skipped by serve()):
//
//   {"op":"submit","tenant":"t0","instance":"w0","tree":"cru_tree v1\n..."}
//       Registers (or replaces) an instance; the tree travels as the text
//       format of tree/serialize.hpp inside a JSON string. Admission
//       control: an instance whose byte estimate alone exceeds the memory
//       budget is rejected up front.
//   {"op":"solve","tenant":"t0","instance":"w0","plan":"pareto-dp"}
//       First solve builds the warm session (path "initial"); a repeat
//       under the same plan is served from it (path "cached"); a new plan
//       rebuilds the session (path "cold").
//   {"op":"perturb","tenant":"t0","instance":"w0","kind":"satellite_drift",
//    "satellite":1,"host_scale":1.1,"sat_scale":0.9,"comm_scale":1.0}
//       Applies one perturbation and re-solves warm where cached state
//       survives. Kinds: global_drift, satellite_drift, satellite_loss,
//       insert_probe (parent named by node name -- names are stable under
//       the id compaction a satellite loss performs; ids are not).
//   {"op":"stats"}            (optional "tenant")
//       Telemetry document (service/telemetry.hpp
//       service_telemetry_to_json): counters and gauges only. A tenant
//       scopes it to that tenant's own block.
//   {"op":"metrics"}
//       The deterministic families of the installed obs::MetricsRegistry
//       (src/obs/metrics.hpp) as Prometheus text in one JSON string field,
//       the service's own carrying what stats reports. Empty string when no
//       registry is installed.
//   {"op":"evict","tenant":"t0","instance":"w0"}   (optional "drop":true)
//       Removes the entry from memory. With a spill tier configured the
//       warm state is preserved on disk unless "drop":true; the response
//       reports the session's "fate": "dropped", "spilled" or "absent".
//   {"op":"checkpoint","dir":"/path"}
//       Writes a full checkpoint (storage/checkpoint.hpp): every warm
//       session, tier placement, LRU clock and telemetry counters.
//   {"op":"restore","dir":"/path"}
//       Replaces the live store/telemetry with a checkpoint's contents;
//       the next warm request is answered without re-solving.
//
// Every response carries {"id":N,"op":...,"ok":true|false}; errors report
// {"ok":false,"error":"..."} and never tear the service down.
//
// SLA-aware degradation. With `degrade=greedy` configured, admission
// pressure stops meaning rejection: a solve or perturb whose budget has
// expired is answered by the cheap greedy heuristic instead -- warm-started
// from the session's cached optimum when one survives -- and the response
// carries "degraded":true, "path":"degraded" and "fallback":"greedy" in
// place of the exact solver's provenance. A request can also *record* the
// decision itself with "degrade":true, which forces the degraded path
// unconditionally: that is what keeps degradation inside the byte-identity
// contract (the decision travels in the trace, not in the wall clock). A
// degraded solve leaves the warm session untouched; a degraded perturb
// applies the perturbation and demotes the entry to tree-only (the cheap
// answer builds no warm state), so the next full solve is an "initial"
// rebuild.
//
// Determinism contract. For a fixed request stream the response stream is
// byte-identical at any shard count and any executor thread count,
// extending the executor and DP determinism guarantees to the serving
// layer: responses expose objectives, cuts, warm/cold paths and counters
// but never wall-clock values, and the store's eviction order is
// shard-count-invariant. Wall-clock data leaves the process only through
// the registry's wall-clock families (--metrics-out) and span timings
// (--trace-out). Deadlines are the deliberate exception -- admission
// rejections depend on the wall clock, exactly like the batch executor's
// between-instance deadline -- so deterministic traces simply carry none.
//
// Admission control takes two options, mirroring the batch executor's
// contract: deadline_seconds is the serve budget measured from
// construction and checked before each request is started (a running solve
// is never interrupted; late requests degrade or fail fast with an error
// response), a per-request "deadline_ms" tightens it for that request, and
// fail_fast stops the stream at the first error response. The budget guards
// *solver work*: only solve and perturb are ever rejected or degraded by
// it -- submit, stats, evict, checkpoint and restore are cheap bookkeeping
// and always admitted (shedding them would lose goodput without saving
// any meaningful compute).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "common/stopwatch.hpp"
#include "core/plan.hpp"
#include "service/session_store.hpp"
#include "service/telemetry.hpp"

namespace treesat {

/// What the service does with a solve/perturb the admission budget would
/// reject (config key degrade=).
enum class DegradeMode : std::uint8_t {
  kOff,     ///< reject with an error response (the pre-degradation behavior)
  kGreedy,  ///< answer with greedy_solve (heuristics/local_search.hpp)
};

/// Service configuration. The string form (parse_service_config, CLI flag
/// --config) spells them shards= / mem_budget= / spill_dir= /
/// spill_budget= / deadline_ms= / fail_fast= / plan= / degrade= / fault=.
struct ServiceOptions {
  /// Store shards, in [1, SessionStore::kMaxShards]. Observable behavior
  /// is shard-count-invariant; the knob sizes the lock partition a
  /// concurrent frontend would use.
  std::size_t shards = 1;
  /// Warm-state byte budget; 0 = unlimited. LRU eviction keeps the store
  /// under it (session_store.hpp).
  std::size_t mem_budget = 0;
  /// Spill tier (session_store.hpp): when non-empty, LRU victims are
  /// written as storage/snapshot.hpp files into this directory instead of
  /// being destroyed, and a store miss reloads from it on demand.
  std::string spill_dir;
  /// Byte budget of the spill tier; 0 = unlimited. Requires spill_dir.
  std::size_t spill_budget = 0;
  /// Default plan spec for solve requests that carry none. Must be a valid
  /// registry spec (core/registry.hpp).
  std::string plan = "pareto-dp";
  /// Admission budget in seconds (config key deadline_ms=), measured from
  /// construction and checked before each solve/perturb starts; 0 = none.
  double deadline_seconds = 0.0;
  /// Stop serve() at the first error response (config key fail_fast=).
  bool fail_fast = true;
  /// SLA-aware degradation (config key degrade=off|greedy): what happens
  /// to a solve/perturb the admission budget would reject. Off keeps the
  /// historical reject-with-error behavior. A request carrying
  /// "degrade":true takes the greedy path regardless of this mode -- the
  /// recorded form replays deterministically.
  DegradeMode degrade = DegradeMode::kOff;
  /// Deterministic storage fault injection for the warm tiers (config key
  /// fault=, sub-spec grammar in storage/faults.hpp, e.g.
  /// fault=seed:7;spill_read:0.5). Disarmed by default.
  FaultPlan faults;
};

/// Parses "key=value[,key=value...]" into ServiceOptions. Accepted keys:
/// shards (1 to 1024), mem_budget (bytes, optional k/m/g suffix, 0 = unlimited),
/// spill_dir (a directory path; enables the spill tier), spill_budget
/// (bytes with k/m/g, 0 = unlimited; requires spill_dir), deadline_ms
/// (finite, >= 0), fail_fast (bool), plan (a registry spec; comma-free --
/// per-request plans carry the full grammar), degrade
/// (off|greedy), fault (a storage/faults.hpp sub-spec,
/// ';'/':'-separated so it nests comma-free).
/// Throws InvalidArgument naming the offending token on anything malformed,
/// with the same diagnostics style as parse_plan
/// (tests/parse_plan_fuzz_test.cpp covers the error table).
[[nodiscard]] ServiceOptions parse_service_config(std::string_view spec);

/// Canonical spec of a config (round-trips through parse_service_config).
[[nodiscard]] std::string service_config_spec(const ServiceOptions& options);

class SolverService {
 public:
  explicit SolverService(ServiceOptions options = {});

  /// Maps one request line to one response line (no trailing newline).
  /// Never throws: malformed requests, unknown instances, solver failures
  /// and deadline rejections all become {"ok":false,...} responses.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Runs the line protocol: a response line per request line; blank lines
  /// and '#' comment lines are skipped (so traces stay annotatable).
  /// Honors fail_fast (stop after the first error response) and
  /// the service deadline. Returns the number of error responses.
  std::size_t serve(std::istream& in, std::ostream& out);

  [[nodiscard]] const ServiceOptions& options() const { return options_; }
  /// Telemetry with the store gauges refreshed: the `stats` document. With
  /// a registry installed it also writes the scrape's service families from
  /// these values, so call it before an exposition.
  [[nodiscard]] const ServiceTelemetry& telemetry();

  /// Writes a full checkpoint (storage/checkpoint.hpp) of the store and
  /// the telemetry counters under `dir`. Also reachable in-protocol
  /// via {"op":"checkpoint","dir":...}.
  void checkpoint_to(const std::string& dir);
  /// Replaces the store and telemetry with a checkpoint's contents (tier
  /// placement, LRU clock and request-id high-water mark preserved), so
  /// the next warm request is answered without re-solving. Also reachable
  /// via {"op":"restore","dir":...}.
  void restore_from(const std::string& dir);
  /// The warm-session store, read-only: gauges, spill records, segment.
  [[nodiscard]] const SessionStore& store() const { return store_; }

 private:
  struct Outcome {
    std::string line;
    bool ok = true;
  };

  [[nodiscard]] Outcome handle(const std::string& line);
  /// Copies the store's gauges and counters into telemetry_, which is all a
  /// stats response needs; telemetry() also writes the scrape.
  void refresh_store_gauges();

  ServiceOptions options_;
  SolvePlan default_plan_;
  SessionStore store_;
  ServiceTelemetry telemetry_;
  Stopwatch since_start_;
  std::size_t next_id_ = 0;
};

}  // namespace treesat
