// Request tracing for the whole stack: nestable spans with deterministic
// structure and opt-in wall-clock timing.
//
// The determinism split of the metrics registry (obs/metrics.hpp) applies
// here, deliberately:
//   * span *structure* -- names, parent/child nesting, and the ordered
//     attributes call sites record -- is a pure function of the request
//     stream (point counts, prune ratios, warm/cold paths, byte sizes;
//     never thread ids, claim order or clocks), so a timing-stripped
//     trace of a deterministic replay is byte-identical at any shard or
//     thread count (structure_json() canonicalizes away the recording
//     interleaving; tests/obs_trace_test.cpp asserts it on the committed
//     golden trace);
//   * span *timings* are wall-clock and opt-in (set_timing): a recorder
//     with timing off never reads the clock, and chrome_trace_json() is
//     the only consumer of the timestamps.
//
// Instrumented call sites pay one relaxed atomic load when no recorder is
// installed and one more when a recorder is installed but disabled -- the
// <2% disabled-overhead budget bench_obs_overhead gates. Recording takes a
// mutex per span event; spans are deliberately coarse (per request, per
// solve phase, per colour pipeline -- never per frontier point), so the
// enabled path stays within its 15% budget on the warm-solve path.
//
// Context propagation is a thread-local current-span: Span (the RAII
// handle) publishes its id for the duration of its scope, so a deep callee
// (pareto_dp under a service request) nests without plumbing ids through
// every signature. Work farmed to other threads passes the parent id
// explicitly -- exactly what solve_batch_report's per-instance spans do.
//
// One recorder is installed process-wide (install_trace); obs::trace()
// returns it or nullptr. The service frontend installs one for
// --trace-out; benches and tests install their own around the code under
// measurement.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace treesat::obs {

/// One recorded attribute; the value is preformatted by the attr()
/// overloads (shortest round-trip for doubles) so export is concatenation.
struct SpanAttr {
  std::string key;
  std::string value;
  bool quoted = true;  ///< string value (vs a number spliced raw into JSON)
};

/// One recorded span. `id` is 1-based (0 = "no span"); `parent` is 0 for
/// roots. Timing fields stay 0 when the recorder's timing is off.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::vector<SpanAttr> attrs;
  double start_seconds = 0.0;     ///< from the recorder's construction
  double duration_seconds = 0.0;  ///< 0 until end()
  std::uint32_t tid = 0;          ///< small per-recorder thread index
};

class TraceRecorder {
 public:
  /// Spans retained per recorder; beyond the cap new begin() calls record
  /// nothing (counted in dropped_spans) so a long-lived serve cannot grow
  /// memory without bound. The cap applies identically on every replay, so
  /// capped traces stay inside the determinism contract.
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 20;

  explicit TraceRecorder(bool timing = false) : timing_(timing) {}

  /// A disabled recorder records nothing (begin returns 0) but stays
  /// installed -- the "disabled tracing" mode bench_obs_overhead prices.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Wall-clock span timing (off by default: structure-only traces are the
  /// deterministic ones).
  void set_timing(bool on) { timing_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool timing() const { return timing_.load(std::memory_order_relaxed); }

  /// Opens a span under the calling thread's current span (see Span).
  std::uint64_t begin(std::string_view name) { return begin(name, current()); }
  /// Opens a span under an explicit parent (0 = root) -- the cross-thread
  /// form used when work is farmed to the scheduler.
  std::uint64_t begin(std::string_view name, std::uint64_t parent);
  /// Closes a span (records the duration when timing is on). id 0 is a
  /// no-op, so call sites can pass a begin() that was dropped or disabled.
  void end(std::uint64_t id);

  // Attribute recording; no-ops for id 0. Values must be pure functions of
  // the request stream (the structure determinism contract); wall-clock
  // values belong in metrics or in the span duration.
  void attr(std::uint64_t id, std::string_view key, std::string_view value);
  void attr(std::uint64_t id, std::string_view key, std::uint64_t value);
  void attr(std::uint64_t id, std::string_view key, double value);

  /// The calling thread's innermost live Span's id (0 outside any).
  [[nodiscard]] static std::uint64_t current();

  [[nodiscard]] std::size_t span_count() const;
  [[nodiscard]] std::size_t dropped_spans() const;
  /// Snapshot of every recorded span (tests and exporters).
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  /// Canonical timing-stripped structure: spans as a nested JSON forest,
  /// roots in recording order, children recursively sorted by their own
  /// canonical serialization -- which is what makes the output independent
  /// of the thread interleaving that recorded the spans. Byte-identical
  /// across shard and batch thread counts for a deterministic request
  /// stream.
  [[nodiscard]] std::string structure_json() const;

  /// chrome://tracing / Perfetto "traceEvents" JSON (complete "X" events,
  /// microsecond timestamps, attributes under "args"). Meaningful with
  /// timing on; with timing off every event collapses to ts=0 dur=0 but
  /// the file still loads. Never part of any byte-identity contract.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Forgets every span (the installed recorder can be reused per phase).
  void clear();

 private:
  friend class Span;

  [[nodiscard]] std::uint32_t thread_index_locked();

  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint64_t> thread_hashes_;  ///< registration order = index
  std::size_t dropped_ = 0;
  std::atomic<bool> enabled_{true};
  std::atomic<bool> timing_{false};
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
};

/// RAII span: opens on construction (when `rec` is non-null and enabled),
/// publishes itself as the thread's current span for its scope, restores
/// the previous current and closes on destruction. An inactive Span (null
/// or disabled recorder, or the span cap) makes every method a no-op, so
/// call sites carry no branches of their own.
class Span {
 public:
  Span() = default;
  Span(TraceRecorder* rec, std::string_view name);
  /// Explicit-parent form for work running on another thread than the one
  /// that opened the parent.
  Span(TraceRecorder* rec, std::string_view name, std::uint64_t parent);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

  [[nodiscard]] explicit operator bool() const { return id_ != 0; }
  [[nodiscard]] std::uint64_t id() const { return id_; }

  void attr(std::string_view key, std::string_view value) {
    if (id_ != 0) rec_->attr(id_, key, value);
  }
  void attr(std::string_view key, std::uint64_t value) {
    if (id_ != 0) rec_->attr(id_, key, value);
  }
  void attr(std::string_view key, double value) {
    if (id_ != 0) rec_->attr(id_, key, value);
  }

 private:
  TraceRecorder* rec_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t saved_ = 0;
};

/// The process-wide recorder, or nullptr when none is installed. One
/// relaxed atomic load -- the entire disabled-instrumentation cost.
[[nodiscard]] TraceRecorder* trace();
/// Installs (or, with nullptr, uninstalls) the process-wide recorder. The
/// caller keeps ownership and must uninstall before destroying it.
void install_trace(TraceRecorder* recorder);

}  // namespace treesat::obs
