#include "obs/metrics.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "common/format.hpp"

namespace treesat::obs {
namespace {

std::atomic<MetricsRegistry*> g_metrics{nullptr};

/// The next free event-site slot; sites are static, so a program claims a
/// fixed number of them.
std::size_t claim_site() {
  static std::atomic<std::size_t> next{0};
  const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  TS_CHECK(slot < MetricsRegistry::kSites,
           "metrics: more than " << MetricsRegistry::kSites << " event sites");
  return slot;
}

void append_help_line(std::string& out, const std::string& name, const std::string& help,
                      std::string_view type) {
  out += "# HELP ";
  out += name;
  out.push_back(' ');
  out += help;
  out.push_back('\n');
  out += "# TYPE ";
  out += name;
  out.push_back(' ');
  out += type;
  out.push_back('\n');
}

// Gauge values are doubles but the deterministic families hold integral
// byte/entry counts; print those without a trailing ".0"-style artifact.
std::string format_value(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  return shortest_round_trip(v);
}

}  // namespace

Histogram::Histogram(double first_bound, std::size_t buckets)
    : first_bound_(first_bound), counts_(buckets) {
  TS_REQUIRE(first_bound > 0.0, "histogram first bucket bound must be positive");
  TS_REQUIRE(buckets >= 2, "histogram needs at least one finite bucket plus +Inf");
}

double Histogram::upper_bound(std::size_t i) const {
  if (i + 1 >= counts_.size()) return std::numeric_limits<double>::infinity();
  return first_bound_ * static_cast<double>(std::uint64_t{1} << i);
}

void Histogram::observe(double value) {
  // Log2 bucket index without a scan: cheap and branch-light because the
  // bounds are a fixed geometric ladder.
  std::size_t idx = 0;
  if (value > first_bound_) {
    const double ratio = value / first_bound_;
    idx = static_cast<std::size_t>(std::ceil(std::log2(ratio)));
    // Guard the exact-power-of-two edge where log2 rounds just below an
    // integer: the invariant is value <= upper_bound(idx).
    while (idx + 1 < counts_.size() && value > upper_bound(idx)) ++idx;
    if (idx >= counts_.size()) idx = counts_.size() - 1;
  }
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + value, std::memory_order_relaxed)) {
  }
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help,
                                  MetricClass cls) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = families_.find(name);
  if (it == families_.end()) {
    Family f;
    f.help.assign(help.data(), help.size());
    f.cls = cls;
    f.counter = std::make_unique<Counter>();
    it = families_.emplace(std::string(name), std::move(f)).first;
  }
  TS_REQUIRE(it->second.counter != nullptr, "metric family type mismatch: " << it->first);
  return *it->second.counter;
}

void MetricsRegistry::set_counter(std::string_view name, std::string_view help,
                                  MetricClass cls, std::uint64_t value) {
  if (value == 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (families_.find(name) == families_.end()) return;
  }
  counter(name, help, cls).set(value);
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help, MetricClass cls) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = families_.find(name);
  if (it == families_.end()) {
    Family f;
    f.help.assign(help.data(), help.size());
    f.cls = cls;
    f.gauge = std::make_unique<Gauge>();
    it = families_.emplace(std::string(name), std::move(f)).first;
  }
  TS_REQUIRE(it->second.gauge != nullptr, "metric family type mismatch: " << it->first);
  return *it->second.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name, std::string_view help,
                                      MetricClass cls, double first_bound,
                                      std::size_t buckets) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = families_.find(name);
  if (it == families_.end()) {
    Family f;
    f.help.assign(help.data(), help.size());
    f.cls = cls;
    f.histogram = std::make_unique<Histogram>(first_bound, buckets);
    it = families_.emplace(std::string(name), std::move(f)).first;
  }
  TS_REQUIRE(it->second.histogram != nullptr, "metric family type mismatch: " << it->first);
  return *it->second.histogram;
}

void MetricsRegistry::append_family(std::string& out, const std::string& name,
                                    const Family& f) const {
  if (f.counter) {
    append_help_line(out, name, f.help, "counter");
    out += name;
    out.push_back(' ');
    out += std::to_string(f.counter->value());
    out.push_back('\n');
    return;
  }
  if (f.gauge) {
    append_help_line(out, name, f.help, "gauge");
    out += name;
    out.push_back(' ');
    out += format_value(f.gauge->value());
    out.push_back('\n');
    return;
  }
  const Histogram& h = *f.histogram;
  append_help_line(out, name, f.help, "histogram");
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    cumulative += h.bucket_value(i);
    out += name;
    out += "_bucket{le=\"";
    const double bound = h.upper_bound(i);
    out += std::isinf(bound) ? "+Inf" : shortest_round_trip(bound);
    out += "\"} ";
    out += std::to_string(cumulative);
    out.push_back('\n');
  }
  out += name;
  out += "_sum ";
  out += format_value(h.sum());
  out.push_back('\n');
  out += name;
  out += "_count ";
  out += std::to_string(h.count());
  out.push_back('\n');
}

std::string MetricsRegistry::exposition(bool include_wallclock) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    if (family.cls == MetricClass::kDeterministic) append_family(out, name, family);
  }
  if (include_wallclock) {
    out += kWallClockMarker;
    out.push_back('\n');
    for (const auto& [name, family] : families_) {
      if (family.cls == MetricClass::kWallClock) append_family(out, name, family);
    }
  }
  return out;
}

CounterSite::CounterSite(std::string_view name, std::string_view help, MetricClass cls)
    : name_(name), help_(help), cls_(cls), slot_(claim_site()) {}

HistogramSite::HistogramSite(std::string_view name, std::string_view help, MetricClass cls,
                             double first_bound)
    : name_(name), help_(help), cls_(cls), first_bound_(first_bound), slot_(claim_site()) {}

MetricsRegistry* metrics() { return g_metrics.load(std::memory_order_acquire); }

void install_metrics(MetricsRegistry* registry) {
  g_metrics.store(registry, std::memory_order_release);
}

}  // namespace treesat::obs
