// Metrics registry: counters, gauges, and fixed-log-bucket histograms
// with Prometheus text-format exposition.
//
// Every family declares a determinism class at creation:
//   * kDeterministic -- values are pure functions of the request stream
//     (request/path counts, byte sizes, frontier-point histograms). The
//     deterministic exposition subset is byte-identical across shard and
//     thread counts and is golden-gated in ci.sh.
//   * kWallClock -- values read clocks (latency sums, request seconds).
//     Exposed after a marker line, and only when the caller asks for them
//     (--metrics-out does, the in-band metrics op never does) -- the same
//     opt-in split as TraceRecorder durations.
//
// Histograms use fixed log2 buckets (bounds first_bound * 2^i), so the
// bucket a deterministic observation lands in never depends on what else
// was observed -- bucket counts of a kDeterministic family are themselves
// deterministic. A kWallClock histogram (e.g. request seconds) has both
// nondeterministic counts and sums and sits entirely behind the marker.
//
// A family is counted where its events happen (the solver's merges, batch
// runs, checkpoints, every histogram) through a call-site handle, unless
// another object already keeps the total. Then the owner writes it at scrape
// time (set_counter, a gauge), as SolverService::telemetry() does from the
// counters `stats` reports.
//
// Handles returned by the registry are stable for the registry's lifetime
// and record with single relaxed atomics. counter() is a find-or-create
// under a mutex, so an event site declares a CounterSite or HistogramSite
// (below) instead: it resolves its family once per installed registry,
//
//   static const obs::CounterSite solves("treesat_dp_solves_total", "...");
//   solves.add();
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace treesat::obs {

enum class MetricClass {
  kDeterministic,  ///< pure function of the request stream
  kWallClock,      ///< timing/scheduler-dependent; opt-in exposition
};

class Counter {
 public:
  void add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  /// Overwrites the total (MetricsRegistry::set_counter).
  void set(std::uint64_t n) { value_.store(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed log2-bucket histogram: upper bounds first_bound * 2^i for
/// i in [0, buckets-1), plus +Inf. Counts are atomics; the sum is an
/// atomic double maintained with a CAS loop (observe() is wait-free per
/// bucket, lock-free on the sum).
class Histogram {
 public:
  Histogram(double first_bound, std::size_t buckets);

  void observe(double value);

  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  /// Upper bound of bucket i; the last bucket is +Inf.
  [[nodiscard]] double upper_bound(std::size_t i) const;
  [[nodiscard]] std::uint64_t bucket_value(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  double first_bound_;
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< last = +Inf
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Thread-safe find-or-create registry. Family names follow Prometheus
/// conventions (`treesat_<noun>_total`, `_bytes`, `_seconds`); names are
/// exposed in sorted order so the deterministic subset is canonical.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name, std::string_view help, MetricClass cls);
  /// Writes a total its owner keeps. The family is created only for a
  /// non-zero value, as a first event would create it; after that every
  /// value is written, 0 included (a restore can move the total back).
  void set_counter(std::string_view name, std::string_view help, MetricClass cls,
                   std::uint64_t value);
  Gauge& gauge(std::string_view name, std::string_view help, MetricClass cls);
  /// Defaults: 24 log2 buckets from 1.0 (counts/bytes). Latency families
  /// pass first_bound=1e-6 (1us .. ~8s). The first creation of a name
  /// fixes its layout; later calls return the existing family.
  Histogram& histogram(std::string_view name, std::string_view help, MetricClass cls,
                       double first_bound = 1.0, std::size_t buckets = 24);

  /// Prometheus text format. Deterministic families first (sorted by
  /// name); then, when include_wallclock, a marker line
  ///   # --- wall-clock (non-deterministic beyond this line) ---
  /// followed by the wall-clock families. Histogram sums are wall-clock
  /// payload even in deterministic families only if the family itself is
  /// kWallClock -- a kDeterministic histogram's sum is deterministic by
  /// the family's contract (byte sizes, point counts), so it is exposed
  /// in the deterministic subset.
  [[nodiscard]] std::string exposition(bool include_wallclock) const;

  /// Event sites (CounterSite, HistogramSite) a program may declare.
  static constexpr std::size_t kSites = 32;

 private:
  friend class CounterSite;
  friend class HistogramSite;

  /// The family handle of event site `slot` in this registry, found or
  /// created by `resolve` on the site's first event here.
  template <typename Metric, typename Resolve>
  Metric& site(std::size_t slot, Resolve resolve) {
    void* handle = sites_[slot].load(std::memory_order_acquire);
    if (handle == nullptr) {
      handle = &resolve();  // racing first events resolve the same family
      sites_[slot].store(handle, std::memory_order_release);
    }
    return *static_cast<Metric*>(handle);
  }

  struct Family {
    std::string help;
    MetricClass cls = MetricClass::kDeterministic;
    // exactly one is set
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  void append_family(std::string& out, const std::string& name, const Family& f) const;

  mutable std::mutex mu_;
  std::map<std::string, Family, std::less<>> families_;
  std::array<std::atomic<void*>, kSites> sites_{};  ///< per event site, null until resolved
};

/// Marker separating the deterministic exposition subset from wall-clock
/// families; ci.sh cuts the scrape at this line before the golden diff.
inline constexpr std::string_view kWallClockMarker =
    "# --- wall-clock (non-deterministic beyond this line) ---";

/// The process-wide registry, or nullptr when none is installed.
[[nodiscard]] MetricsRegistry* metrics();
/// Installs (or, with nullptr, uninstalls) the process-wide registry.
void install_metrics(MetricsRegistry* registry);

/// A counter family recorded where its events happen. Declare one `static`
/// per call site: each site claims a slot in every registry, and its first
/// event after a registry is installed finds or creates the family there
/// (counter()), so the family appears with that event, 0 included. Later
/// events record through the handle kept in the slot: no mutex, no name
/// lookup. The slots belong to the registry, so one installed later --
/// even where a destroyed one stood -- resolves every site afresh. A no-op
/// while no registry is installed.
class CounterSite {
 public:
  CounterSite(std::string_view name, std::string_view help,
              MetricClass cls = MetricClass::kDeterministic);
  void add(std::uint64_t n = 1) const {
    if (MetricsRegistry* m = metrics()) {
      m->site<Counter>(slot_, [&]() -> Counter& { return m->counter(name_, help_, cls_); }).add(n);
    }
  }

 private:
  std::string_view name_;
  std::string_view help_;
  MetricClass cls_;
  std::size_t slot_;
};

/// CounterSite for a histogram family (histogram()'s layout, 24 buckets).
class HistogramSite {
 public:
  HistogramSite(std::string_view name, std::string_view help, MetricClass cls,
                double first_bound = 1.0);
  void observe(double value) const {
    if (MetricsRegistry* m = metrics()) {
      m->site<Histogram>(slot_, [&]() -> Histogram& {
         return m->histogram(name_, help_, cls_, first_bound_);
       }).observe(value);
    }
  }

 private:
  std::string_view name_;
  std::string_view help_;
  MetricClass cls_;
  double first_bound_;
  std::size_t slot_;
};

}  // namespace treesat::obs
