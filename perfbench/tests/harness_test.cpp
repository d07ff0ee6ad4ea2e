// Self-tests of the benchmark's own measuring logic; run.py runs them before
// every measurement and refuses to measure when one fails.
//
//   perfbench_selftest <scratch dir>
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "pipeline.hpp"
#include "service/service.hpp"
#include "workload/traffic.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool refuses(const std::vector<double>& samples, double q) {
  try {
    static_cast<void>(percentile(samples, q));
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_needs_ten_samples_beyond() {
  check(!refuses(one_to(1000), 0.99), "p99 of 1000 samples has 10 beyond it");
  check(percentile(one_to(1000), 0.99) == 990.0, "p99 of 1..1000 is the 990th sample");
  check(refuses(one_to(999), 0.99), "p99 of 999 samples has only 9 beyond it");
  check(refuses(one_to(19), 0.50), "p50 of 19 samples has only 9 beyond it");
  check(percentile(one_to(20), 0.50) == 10.0, "p50 of 1..20 is the 10th sample");
  check(refuses({}, 0.50), "no samples, no percentile");
}

void self_time_subtracts_only_covered_part() {
  std::vector<SpanRec> spans(5);
  spans[0].start = 0.0;  // root [0, 10]
  spans[0].end = 10.0;
  spans[1] = {0, 0, 0, 1.0, 4.0};   // child [1, 4]
  spans[2] = {0, 0, 0, 3.0, 6.0};   // child [3, 6], overlaps the first
  spans[3] = {0, 0, 0, 8.0, 12.0};  // child [8, 12], runs past its parent
  spans[4] = {0, 1, 0, 2.0, 3.0};   // grandchild [2, 3] under [1, 4]
  const std::vector<double> self = self_times(spans);
  // Children cover [1, 6] and [8, 10] of the root: 7 of its 10 seconds.
  check(std::abs(self[0] - 3.0) < 1e-12, "root self time subtracts the union of its children");
  check(std::abs(self[1] - 2.0) < 1e-12, "a grandchild counts against its own parent only");
  check(std::abs(self[3] - 4.0) < 1e-12, "a childless span's self time is its duration");
  check(std::abs(self[4] - 1.0) < 1e-12, "a leaf keeps its whole duration");
}

void response_check_catches_a_doctored_response(const fs::path& scratch) {
  const std::string a = R"({"id":2,"op":"solve","ok":true,"objective":53.5,"cut":["a"]})";
  check(response_mismatch(a, a).empty(), "identical responses agree");
  check(!response_mismatch(a, a.substr(0, a.size() - 1)).empty(), "a truncated response differs");
  const std::string nested = R"({"id":3,"op":"stats","ok":true,"stats":{"objective":1}})";
  check(json_field(nested, "objective").empty(), "a nested key is not a response field");

  // The real cross-check: the service and the layered pipeline answer the
  // same requests under a memory budget that makes both spill and reload.
  // Every response but stats must match byte for byte, and a response
  // doctored by one byte anywhere must be caught.
  treesat::TrafficOptions o;
  o.tenants = 4;
  o.ticks = 80;
  const treesat::TrafficTrace trace = treesat::traffic_trace(o);
  std::size_t peak = 0;
  {
    treesat::SolverService unlimited;
    for (const std::string& line : trace.lines) {
      static_cast<void>(unlimited.handle_line(line));
      peak = std::max(peak, unlimited.telemetry().bytes_used);
    }
  }
  for (const char* dir : {"spill_service", "spill_pipeline", "probe"}) fresh_dir(scratch / dir);
  treesat::obs::MetricsRegistry registry;
  treesat::obs::install_metrics(&registry);
  treesat::SolverService service(service_options(peak / 3, (scratch / "spill_service").string()));
  Pipeline pipeline(service_options(peak / 3, (scratch / "spill_pipeline").string()),
                    /*probes=*/true, scratch / "probe");
  std::size_t compared = 0;
  std::size_t doctored = 0;
  std::size_t caught = 0;
  for (std::size_t i = 0; i < trace.lines.size(); ++i) {
    const std::string theirs = service.handle_line(trace.lines[i]);
    const std::string mine = pipeline.handle(trace.lines[i], static_cast<std::uint32_t>(i));
    if (json_field(theirs, "op") == "stats") continue;
    ++compared;
    check(response_mismatch(theirs, mine).empty(), "the pipeline reproduces the service");
    // One byte changed at the start, in the middle and at the end.
    for (const std::size_t at : {std::size_t{1}, theirs.size() / 2, theirs.size() - 2}) {
      std::string bad = theirs;
      bad[at] = bad[at] == '0' ? '1' : '0';
      ++doctored;
      if (!response_mismatch(bad, mine).empty()) ++caught;
    }
  }
  const treesat::ServiceTelemetry& telemetry = service.telemetry();
  treesat::obs::install_metrics(nullptr);
  check(compared > 50, "the cross-check saw many responses");
  check(doctored == caught, "every doctored response is reported as a mismatch");
  check(telemetry.spills > 0 && telemetry.spill_reloads > 0, "the budget made the service spill");
  check(pipeline.store_spills() == telemetry.spills &&
            pipeline.store_reloads() == telemetry.spill_reloads,
        "the pipeline's store spilled and reloaded as the service's did");
  check(pipeline.warm_equals_cold().empty(), "warm sessions match cold re-solves");
}

void stale_run_directory_is_wiped(const fs::path& scratch) {
  const fs::path dir = scratch / "spill";
  fs::create_directories(dir / "nested");
  std::ofstream(dir / "t0@w0.tss") << "stale snapshot";
  std::ofstream(dir / "nested" / "MANIFEST.tsc") << "stale checkpoint";
  fresh_dir(dir);
  check(fs::is_directory(dir) && fs::is_empty(dir), "fresh_dir leaves an empty directory");
  fs::remove_all(dir);
  fresh_dir(dir);
  check(fs::is_directory(dir) && fs::is_empty(dir), "fresh_dir creates a missing directory");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <scratch dir>\n");
    return 2;
  }
  const fs::path scratch = argv[1];
  fresh_dir(scratch);
  percentile_needs_ten_samples_beyond();
  self_time_subtracts_only_covered_part();
  response_check_catches_a_doctored_response(scratch);
  stale_run_directory_is_wiped(scratch);
  fs::remove_all(scratch);
  if (failures != 0) return 1;
  std::printf("perfbench selftest: ok\n");
  return 0;
}
