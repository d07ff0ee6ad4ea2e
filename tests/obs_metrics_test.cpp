// MetricsRegistry (obs/metrics.hpp): the Prometheus-style counter/gauge/
// histogram registry behind the service's `metrics` op and the
// --metrics-out scrape. Pins the pieces the golden gate in ci.sh depends
// on: the fixed log2 bucket layout (a deterministic observation always
// lands in the same bucket), the exposition format (HELP/TYPE lines,
// cumulative buckets, the wall-clock marker), the deterministic/wall-clock
// class split, that concurrent recording loses no increments, and that
// event sites resolve their families afresh in every installed registry.
#include <gtest/gtest.h>

#include <cmath>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"
#include "tree/serialize.hpp"
#include "workload/scenarios.hpp"

namespace treesat::obs {
namespace {

TEST(Histogram, FixedLog2BucketLayout) {
  Histogram h(1.0, 5);  // bounds 1, 2, 4, 8, +Inf
  ASSERT_EQ(h.bucket_count(), 5u);
  EXPECT_DOUBLE_EQ(h.upper_bound(0), 1.0);
  EXPECT_DOUBLE_EQ(h.upper_bound(1), 2.0);
  EXPECT_DOUBLE_EQ(h.upper_bound(2), 4.0);
  EXPECT_DOUBLE_EQ(h.upper_bound(3), 8.0);
  EXPECT_TRUE(std::isinf(h.upper_bound(4)));

  // Boundary values land in the bucket whose bound they equal (le = "less
  // or equal", the Prometheus convention).
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (le 1)
  h.observe(1.5);   // bucket 1
  h.observe(2.0);   // bucket 1 (le 2)
  h.observe(7.9);   // bucket 3
  h.observe(8.1);   // +Inf
  h.observe(1e12);  // +Inf
  EXPECT_EQ(h.bucket_value(0), 2u);
  EXPECT_EQ(h.bucket_value(1), 2u);
  EXPECT_EQ(h.bucket_value(2), 0u);
  EXPECT_EQ(h.bucket_value(3), 1u);
  EXPECT_EQ(h.bucket_value(4), 2u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 7.9 + 8.1 + 1e12);
}

TEST(Histogram, SubUnitFirstBoundCoversLatencies) {
  Histogram h(1e-6, 24);  // 1us .. ~8s, the latency-family layout
  h.observe(0.0);         // below the first bound: bucket 0
  h.observe(1e-6);
  h.observe(3e-6);  // (2us, 4us]: bucket 2
  EXPECT_EQ(h.bucket_value(0), 2u);
  EXPECT_EQ(h.bucket_value(2), 1u);
  EXPECT_EQ(h.count(), 3u);
}

TEST(MetricsRegistry, FindOrCreateReturnsStableHandles) {
  MetricsRegistry reg;
  Counter& a = reg.counter("treesat_x_total", "x", MetricClass::kDeterministic);
  Counter& b = reg.counter("treesat_x_total", "x", MetricClass::kDeterministic);
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  // Re-registering a name as a different metric type is rejected.
  EXPECT_THROW(static_cast<void>(reg.gauge("treesat_x_total", "x", MetricClass::kDeterministic)),
               InvalidArgument);
}

TEST(MetricsRegistry, SetCounterAppearsWithItsFirstNonZeroValue) {
  // An owner-kept total: absent while 0, as an event-counted family would
  // be before its first event; once present, every value is written,
  // moving back to 0 included.
  MetricsRegistry reg;
  const auto det = MetricClass::kDeterministic;
  reg.set_counter("treesat_s_total", "s", det, 0);
  EXPECT_EQ(reg.exposition(false), "");
  reg.set_counter("treesat_s_total", "s", det, 5);
  EXPECT_NE(reg.exposition(false).find("\ntreesat_s_total 5\n"), std::string::npos);
  reg.set_counter("treesat_s_total", "s", det, 0);
  EXPECT_NE(reg.exposition(false).find("\ntreesat_s_total 0\n"), std::string::npos);
  EXPECT_EQ(reg.counter("treesat_s_total", "s", det).value(), 0u);
  reg.gauge("treesat_g", "g", det);
  EXPECT_THROW(reg.set_counter("treesat_g", "g", det, 1), InvalidArgument);
}

TEST(MetricsRegistry, ExpositionFormatAndClassSplit) {
  MetricsRegistry reg;
  reg.counter("treesat_b_total", "b counter", MetricClass::kDeterministic).add(2);
  reg.counter("treesat_a_total", "a counter", MetricClass::kDeterministic).add(1);
  reg.gauge("treesat_g", "g gauge", MetricClass::kDeterministic).set(1.5);
  reg.counter("treesat_w_total", "w wall", MetricClass::kWallClock).add(9);
  Histogram& h = reg.histogram("treesat_h", "h hist", MetricClass::kDeterministic, 1.0, 3);
  h.observe(1.0);
  h.observe(3.0);

  const std::string det = reg.exposition(/*include_wallclock=*/false);
  // Families sorted by name; counters/gauges/histograms carry HELP/TYPE.
  EXPECT_NE(det.find("# HELP treesat_a_total a counter\n"
                     "# TYPE treesat_a_total counter\n"
                     "treesat_a_total 1\n"),
            std::string::npos);
  EXPECT_LT(det.find("treesat_a_total 1"), det.find("treesat_b_total 2"));
  EXPECT_NE(det.find("treesat_g 1.5\n"), std::string::npos);
  // Cumulative buckets with the +Inf terminator, then sum and count.
  EXPECT_NE(det.find("treesat_h_bucket{le=\"1\"} 1\n"
                     "treesat_h_bucket{le=\"2\"} 1\n"
                     "treesat_h_bucket{le=\"+Inf\"} 2\n"
                     "treesat_h_sum 4\n"
                     "treesat_h_count 2\n"),
            std::string::npos);
  // The wall-clock family and the marker stay out of the det subset.
  EXPECT_EQ(det.find("treesat_w_total"), std::string::npos);
  EXPECT_EQ(det.find(kWallClockMarker), std::string::npos);

  const std::string full = reg.exposition(/*include_wallclock=*/true);
  // The deterministic subset is a byte-exact prefix of the full scrape --
  // the invariant that lets ci.sh cut the scrape at the marker.
  ASSERT_GT(full.size(), det.size());
  EXPECT_EQ(full.compare(0, det.size(), det), 0);
  const std::size_t marker = full.find(kWallClockMarker);
  ASSERT_NE(marker, std::string::npos);
  EXPECT_GT(full.find("treesat_w_total 9"), marker);
}

TEST(MetricsRegistry, ConcurrentRecordingLosesNothing) {
  MetricsRegistry reg;
  install_metrics(&reg);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 5000;
  {
    static const CounterSite c("treesat_c_total", "c");
    static const HistogramSite h("treesat_h", "h", MetricClass::kDeterministic);
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.emplace_back([t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          // Every thread's first event races to resolve both sites in this
          // registry; then all of them hammer the kept handles.
          c.add();
          h.observe(static_cast<double>((t + i) % 16));
        }
      });
    }
  }
  install_metrics(nullptr);
  EXPECT_EQ(reg.counter("treesat_c_total", "c", MetricClass::kDeterministic).value(),
            kThreads * kPerThread);
  Histogram& h = reg.histogram("treesat_h", "h", MetricClass::kDeterministic);
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  std::uint64_t buckets = 0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) buckets += h.bucket_value(i);
  EXPECT_EQ(buckets, h.count());
}

TEST(Metrics, EventSitesNoOpWithoutARegistry) {
  install_metrics(nullptr);
  static const CounterSite c("treesat_void_total", "never materializes");
  static const HistogramSite h("treesat_void", "never materializes", MetricClass::kWallClock);
  c.add();
  h.observe(1.0);
  MetricsRegistry reg;
  EXPECT_EQ(reg.exposition(false), "");
  EXPECT_EQ(reg.exposition(true), std::string(kWallClockMarker) + "\n");
}

TEST(Metrics, EventSitesFollowTheInstalledRegistry) {
  // Serve through registry A, destroy it, build registry B in the same
  // storage and serve through that: B must count only its own events. A
  // site that kept A's handles by the registry's address would record into
  // A's freed families here and leave B's empty.
  const auto serve = [](SolverService& service, const std::string& instance) {
    const std::string tree = json_escape(to_text(paper_running_example()));
    for (const std::string& line :
         {R"({"op":"submit","tenant":"t","instance":")" + instance + R"(","tree":")" + tree +
              R"("})",
          R"({"op":"solve","tenant":"t","instance":")" + instance + R"("})"}) {
      ASSERT_NE(service.handle_line(line).find("\"ok\":true"), std::string::npos) << line;
    }
  };
  alignas(MetricsRegistry) unsigned char storage[sizeof(MetricsRegistry)];
  SolverService service;
  MetricsRegistry* a = new (storage) MetricsRegistry();
  install_metrics(a);
  serve(service, "w0");
  serve(service, "w1");
  ASSERT_NE(a->exposition(false).find("treesat_dp_minkowski_merges_total 6\n"), std::string::npos);
  install_metrics(nullptr);
  a->~MetricsRegistry();

  MetricsRegistry* b = new (storage) MetricsRegistry();
  ASSERT_EQ(static_cast<void*>(a), static_cast<void*>(b));
  install_metrics(b);
  static_cast<void>(service.handle_line(R"({"op":"stats"})"));
  std::string text = b->exposition(false);
  EXPECT_NE(text.find("treesat_response_bytes_count 1\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("treesat_dp_minkowski_merges_total"), std::string::npos) << text;
  serve(service, "w2");
  text = b->exposition(false);
  EXPECT_NE(text.find("treesat_response_bytes_count 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("treesat_dp_minkowski_merges_total 3\n"), std::string::npos) << text;
  install_metrics(nullptr);
  b->~MetricsRegistry();
}

}  // namespace
}  // namespace treesat::obs
