// The traced pass's layered replay: the service's request handling rebuilt
// from each layer's public functions, with a span around every call into a
// layer.
//
// SolverService::handle_line is one opaque call; this pipeline makes the
// same calls in the same order (RequestObject::parse, tree_from_text,
// SessionStore put/find/evict/refresh_bytes/enforce_budget, the
// ResolveSession constructor and resolve, JsonLineWriter), so the store
// sees the same LRU clock, spills and reloads as the service does. The
// traced pass holds it to that: every response but a stats document must be
// byte-identical to the service's (path, cut, lru_evicted and bytes
// included), and the store's spill and reload counters must equal the
// service's.
// What it leaves out is the service's own glue -- dispatch, telemetry and
// the registry bumps -- which is why the service layer's time is measured
// as handle_line time minus the layer time recorded here.
//
// With `probes` on, two side probes run inside a request but outside its
// accounting (their spans are children of the request root, so they leave
// its self time, and their layer is kProbe, so no request total includes
// them). They disturb the caches the next layer call finds, so the traced
// pass takes layer times from a pass without probes:
//   * probe.apply -- apply_perturbation + Colouring on the same input a
//     resolve is about to consume;
//   * probe.export/encode/io/decode/import -- the storage codec chain timed
//     stage by stage on a session the store just reloaded from the spill
//     tier.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.hpp"
#include "service/service.hpp"

namespace perfbench {

enum class Layer : std::uint8_t { kService, kProtocol, kTree, kStore, kCore, kStorage, kProbe };
inline constexpr std::size_t kLayerCount = 7;
[[nodiscard]] const char* layer_name(Layer layer);

/// Span names (SpanRec::name values) of the pipeline.
enum SpanName : std::uint32_t {
  kReq,              ///< root: one request; its self time is pipeline glue
  kProtocolParse,    ///< RequestObject::parse
  kProtocolEmit,     ///< JsonLineWriter, response fields
  kTreeParse,        ///< tree_from_text
  kStorePut,         ///< SessionStore::contains + put
  kStoreLookup,      ///< SessionStore::find served from memory
  kStoreRefresh,     ///< SessionStore::refresh_bytes
  kStoreBudget,      ///< SessionStore::enforce_budget that spilled nothing
  kStoreEvict,       ///< SessionStore::evict that wrote nothing
  kCoreInitial,      ///< ResolveSession constructor (first solve)
  kCoreResolveWarm,  ///< ResolveSession::resolve, ResolvePath::kWarm
  kCoreResolveCold,  ///< ResolveSession::resolve, ResolvePath::kCold
  kCoreEvolve,       ///< apply_perturbation on a not-yet-solved instance
  kStorageSpill,     ///< enforce_budget or evict that wrote spill snapshots
  kStorageReload,    ///< SessionStore::find that reloaded from the spill tier
  kProbeApply,       ///< apply_perturbation + Colouring (side probe)
  kProbeCodec,       ///< the codec probe below, end to end (side probe)
  kProbeExport,      ///< session_entry_state (side probe)
  kProbeEncode,      ///< encode_snapshot (side probe)
  kProbeIo,          ///< write_file_atomic + read_file_bytes (side probe)
  kProbeDecode,      ///< decode_snapshot (side probe)
  kProbeImport,      ///< session_entry_from_state (side probe)
  kSpanNameCount
};
[[nodiscard]] const char* span_name(std::uint32_t name);
[[nodiscard]] Layer span_layer(std::uint32_t name);

/// Counts the pipeline observes while replaying (deterministic for a trace).
struct PipelineCounts {
  std::size_t requests = 0;
  std::size_t errors = 0;
  std::size_t memory_hits = 0;  ///< find() served from memory
  std::size_t reloads = 0;      ///< find() served from the spill tier
  std::size_t spilled_sessions = 0;
  std::size_t resolves_warm = 0;
  std::size_t resolves_cold = 0;
  std::size_t initial_solves = 0;
  std::size_t regions_total = 0;   ///< over warm and cold resolves
  std::size_t regions_reused = 0;
  std::size_t colours_total = 0;
  std::size_t colours_reused = 0;
  std::size_t tree_text_bytes = 0;  ///< bytes handed to tree_from_text
  std::size_t snapshot_bytes = 0;   ///< summed over codec probes
  std::size_t snapshot_probes = 0;
};

class Pipeline {
 public:
  /// `probe_dir` receives the codec probe's scratch file.
  Pipeline(const treesat::ServiceOptions& options, bool probes, std::filesystem::path probe_dir);

  /// Starts from a checkpoint instead of an empty store, exactly as
  /// SolverService::restore_from does.
  void restore(const std::string& dir);

  /// Handles one request line (trace index `request`) and returns the
  /// response line. Records spans for every layer call.
  [[nodiscard]] std::string handle(const std::string& line, std::uint32_t request);

  [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }
  [[nodiscard]] const PipelineCounts& counts() const { return counts_; }
  /// The store's own counters, restored checkpoint included.
  [[nodiscard]] std::size_t store_spills() const { return store_.spills(); }
  [[nodiscard]] std::size_t store_reloads() const { return store_.spill_reloads(); }

  /// Re-solves every session's final instance cold through solve() with
  /// the session's plan and compares objective bits and cut. Spilled
  /// sessions are reloaded first. Returns one line per mismatch.
  [[nodiscard]] std::vector<std::string> warm_equals_cold();

 private:
  friend class Scope;
  std::uint32_t open(std::uint32_t name);
  void close(std::uint32_t index);
  [[nodiscard]] double now() const;

  std::string handle_request(const std::string& line);
  void probe_codec(const treesat::SessionEntry& entry);

  treesat::ServiceOptions options_;
  treesat::SolvePlan default_plan_;
  std::string default_plan_key_;
  treesat::SessionStore store_;
  bool probes_;
  std::filesystem::path probe_file_;
  std::size_t next_id_ = 0;

  std::vector<SpanRec> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint32_t request_ = 0;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  PipelineCounts counts_;
};

}  // namespace perfbench
