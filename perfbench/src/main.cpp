// perfbench: the treesat serving benchmark's measuring program.
//
//   perfbench gen    --workload W --seed N --dir D
//       Generates W's trace for seed N into D (and, for spill_churn, the
//       checkpoint of its warm-up prefix plus the response digest of a
//       straight, restart-free replay). Untimed; run as its own process.
//   perfbench run    --workload W --seed N --dir D --seconds S
//       Timed, untraced replays through SolverService::handle_line for S
//       seconds; prints the end-to-end metrics.
//   perfbench traced --workload W --seed N --dir D --seconds S
//       The traced pass: handle_line replays with and without the metrics
//       registry and the program's TraceRecorder, and the layered pipeline
//       (pipeline.hpp); prints the per-layer metrics.
//
// Both measuring modes check every answer and print, as their last stdout
// line, {"correct":..,"attempted":..,"failed":..,"metrics":{..}}; a failed
// check makes the exit code 1. run.py builds this program and drives it.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline.hpp"
#include "platform/simd.hpp"
#include "service/service.hpp"
#include "storage/wire.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;
using treesat::wire::hex16;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Pins the client thread to the next core it may use, round-robin; each
/// replay calls it once. One pinned core per replay keeps the scheduler from
/// migrating the thread mid-replay. Rotating matters on a virtual machine
/// whose cores run 30% faster or slower for tens of seconds at a time, each
/// on its own schedule: one core for a whole run made runs bimodal, while
/// rotating gives every run the same mix of cores.
void pin_next_core() {
  static const std::vector<int> cores = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
      }
    }
    return out;
  }();
  static std::size_t next = 0;
  if (cores.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cores[next++ % cores.size()], &one);
  static_cast<void>(sched_setaffinity(0, sizeof one, &one));
}

// --- command line ---------------------------------------------------------

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  fs::path dir;
  double seconds = 0.0;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench gen|run|traced --workload W ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--dir") {
      a.dir = value;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (a.dir.empty()) throw std::invalid_argument("--dir is required");
  if (a.mode != "gen" && !(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// --- trace files ----------------------------------------------------------

struct Trace {
  std::vector<std::string> lines;
  std::size_t setup_lines = 0;
  std::size_t mem_budget = 0;
  std::string straight_digest;  ///< spill_churn: suffix digest without a restart
};

fs::path trace_path(const fs::path& dir) { return dir / "trace.jsonl"; }
fs::path meta_path(const fs::path& dir) { return dir / "meta.txt"; }
fs::path checkpoint_dir(const fs::path& dir) { return dir / "checkpoint"; }

Trace load_trace(const fs::path& dir) {
  Trace t;
  std::ifstream in(trace_path(dir));
  if (!in) throw std::runtime_error("cannot read " + trace_path(dir).string());
  for (std::string line; std::getline(in, line);) t.lines.push_back(std::move(line));
  std::ifstream meta(meta_path(dir));
  std::string key;
  while (meta >> key) {
    if (key == "setup_lines") meta >> t.setup_lines;
    if (key == "mem_budget") meta >> t.mem_budget;
    if (key == "straight_digest") meta >> t.straight_digest;
  }
  if (t.setup_lines == 0 || t.setup_lines >= t.lines.size()) {
    throw std::runtime_error("malformed trace metadata in " + meta_path(dir).string());
  }
  return t;
}

bool ok_response(const std::string& line) { return json_field(line, "ok") == "true"; }

int run_gen(const Args& a) {
  fresh_dir(a.dir);
  const GeneratedTrace g = generate_trace(a.workload, a.seed);
  {
    std::ofstream out(trace_path(a.dir));
    for (const std::string& line : g.lines) out << line << '\n';
    if (!out) throw std::runtime_error("cannot write " + trace_path(a.dir).string());
  }
  std::ofstream meta(meta_path(a.dir));
  meta << "setup_lines " << g.setup_lines << '\n';
  meta << "mem_budget " << g.mem_budget << '\n';
  if (starts_from_checkpoint(a.workload)) {
    // Replay the warm-up prefix, checkpoint it, and keep going: the rest of
    // this replay is the restart-free reference the restored runs must
    // reproduce byte for byte.
    const fs::path spill = a.dir / "gen_spill";
    treesat::obs::MetricsRegistry registry;
    treesat::obs::install_metrics(&registry);
    treesat::SolverService service(service_options(g.mem_budget, spill.string()));
    Digest digest;
    for (std::size_t i = 0; i < g.lines.size(); ++i) {
      if (i == g.setup_lines) service.checkpoint_to(checkpoint_dir(a.dir).string());
      const std::string response = service.handle_line(g.lines[i]);
      if (!ok_response(response)) throw std::runtime_error("gen: request failed: " + response);
      if (i >= g.setup_lines) digest.add(response);
    }
    treesat::obs::install_metrics(nullptr);
    fs::remove_all(spill);
    meta << "straight_digest " << hex16(digest.value()) << '\n';
  }
  if (!meta) throw std::runtime_error("cannot write " + meta_path(a.dir).string());
  std::cout << "generated " << g.lines.size() << " lines (" << g.setup_lines
            << " warm-up) for " << a.workload << " seed " << a.seed << "\n";
  return 0;
}

// --- replays through the service ------------------------------------------

enum class Op : std::uint8_t { kPerturb, kSolve, kOther };

Op op_of(const std::string& line) {
  const std::string_view op = json_field(line, "op");
  if (op == "perturb") return Op::kPerturb;
  if (op == "solve") return Op::kSolve;
  return Op::kOther;
}

/// Counts that are pure functions of the trace; they must repeat exactly
/// on every replay of a run.
struct DeterministicCounts {
  std::size_t warm_hits = 0;
  std::size_t initial_solves = 0;
  std::size_t cold_solves = 0;
  std::size_t regions_reused = 0;
  std::uint64_t merge_points_generated = 0;
  std::uint64_t merge_points_kept = 0;
  std::size_t spills = 0;
  std::size_t reloads = 0;
  double snapshot_bytes = 0.0;

  bool operator==(const DeterministicCounts&) const = default;

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "warm_hits=" << warm_hits << " initial=" << initial_solves << " cold=" << cold_solves
       << " regions_reused=" << regions_reused << " merge_points=" << merge_points_generated
       << "/" << merge_points_kept << " spills=" << spills << " reloads=" << reloads
       << " snapshot_bytes=" << static_cast<std::uint64_t>(snapshot_bytes);
    return os.str();
  }
};

/// What the obs layer has installed while a service handles a request.
enum class Obs : std::uint8_t { kRegistry, kNone, kRegistryAndTrace };

struct Replay {
  /// First trace line sent through handle_line: 0, or the end of the
  /// warm-up prefix when the replay started from its checkpoint.
  std::size_t first_line = 0;
  double setup_seconds = 0.0;  ///< construction until every tenant is warm
  double timed_seconds = 0.0;  ///< handle_line time of the lines after the prefix
  std::vector<double> latency;         ///< per line from first_line, seconds
  std::vector<std::string> responses;  ///< per line from first_line
  std::size_t failed = 0;
  std::uint64_t digest = 0;  ///< over the responses after the prefix
  DeterministicCounts counts;
  double unattributed_share = 0.0;  ///< Obs::kRegistryAndTrace only
  std::size_t dropped_spans = 0;
};

/// Share of the program's own req.* root span time that no child span
/// covers.
double unattributed_share(const std::vector<treesat::obs::SpanRecord>& recorded) {
  std::map<std::uint64_t, std::uint32_t> index_of;
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    index_of[recorded[i].id] = static_cast<std::uint32_t>(i);
  }
  std::vector<SpanRec> spans(recorded.size());
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    spans[i].start = recorded[i].start_seconds;
    spans[i].end = recorded[i].start_seconds + recorded[i].duration_seconds;
    const auto p = index_of.find(recorded[i].parent);
    spans[i].parent = p == index_of.end() ? SpanRec::kNoParent : p->second;
  }
  const std::vector<double> self = self_times(spans);
  double root_total = 0.0;
  double root_self = 0.0;
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    if (recorded[i].parent != 0 || recorded[i].name.rfind("req.", 0) != 0) continue;
    root_total += recorded[i].duration_seconds;
    root_self += self[i];
  }
  return root_total > 0.0 ? root_self / root_total : 0.0;
}

/// A fresh service configured as treesat_serve runs it (MetricsRegistry
/// installed, default plan, dp_threads=1), brought warm by the trace's
/// warm-up prefix or by restoring the checkpoint of it, and fed the trace
/// one line at a time. Each step installs this run's observability before
/// its call, so several runs can be stepped in lockstep.
class ServiceRun {
 public:
  ServiceRun(const std::string& workload, const Trace& trace, const fs::path& run_dir,
             const std::string& tag, Obs obs)
      : trace_(trace), obs_(obs), spill_(run_dir / ("spill_" + tag)) {
    const bool restored = starts_from_checkpoint(workload);
    r_.first_line = restored ? trace.setup_lines : 0;
    next_ = r_.first_line;
    r_.latency.reserve(trace.lines.size() - next_);
    r_.responses.reserve(trace.lines.size() - next_);
    fresh_dir(spill_);
    install();
    const Clock::time_point t0 = Clock::now();
    service_.emplace(service_options(trace.mem_budget, spill_.string()));
    if (restored) service_->restore_from(checkpoint_dir(run_dir).string());
    r_.setup_seconds = seconds_since(t0);
  }
  ServiceRun(const ServiceRun&) = delete;
  ServiceRun& operator=(const ServiceRun&) = delete;
  ~ServiceRun() { uninstall(); }

  [[nodiscard]] bool done() const { return next_ == trace_.lines.size(); }
  [[nodiscard]] bool warm() const { return next_ >= trace_.setup_lines; }
  [[nodiscard]] double setup_seconds() const { return r_.setup_seconds; }
  [[nodiscard]] const std::string& last_response() const { return r_.responses.back(); }

  void step() {
    install();
    const Clock::time_point before = Clock::now();
    r_.responses.push_back(service_->handle_line(trace_.lines[next_]));
    const double seconds = seconds_since(before);
    r_.latency.push_back(seconds);
    (next_ < trace_.setup_lines ? r_.setup_seconds : r_.timed_seconds) += seconds;
    ++next_;
  }

  /// Collects counts and checks; the service is destroyed.
  Replay finish() {
    install();  // telemetry() mirrors the store gauges into the installed registry
    const treesat::ServiceTelemetry& telemetry = service_->telemetry();
    const treesat::TenantTelemetry totals = telemetry.totals();
    r_.counts.warm_hits = totals.warm_hits;
    r_.counts.initial_solves = totals.initial_solves;
    r_.counts.cold_solves = totals.cold_solves;
    r_.counts.spills = telemetry.spills;
    r_.counts.reloads = telemetry.spill_reloads;
    service_.reset();
    uninstall();
    if (obs_ != Obs::kNone) {
      const auto det = treesat::obs::MetricClass::kDeterministic;
      r_.counts.merge_points_generated =
          registry_.counter("treesat_dp_merge_points_generated_total", "", det).value();
      r_.counts.merge_points_kept =
          registry_.counter("treesat_dp_merge_points_kept_total", "", det).value();
      r_.counts.snapshot_bytes = registry_.histogram("treesat_spill_snapshot_bytes", "", det).sum();
    }
    if (obs_ == Obs::kRegistryAndTrace) {
      r_.unattributed_share = unattributed_share(recorder_.snapshot());
      r_.dropped_spans = recorder_.dropped_spans();
    }
    Digest digest;
    for (std::size_t i = 0; i < r_.responses.size(); ++i) {
      const std::string& line = r_.responses[i];
      if (!ok_response(line)) ++r_.failed;
      if (r_.first_line + i < trace_.setup_lines) continue;
      digest.add(line);
      const std::string_view reused = json_field(line, "regions_reused");
      if (!reused.empty()) r_.counts.regions_reused += std::stoull(std::string(reused));
    }
    r_.digest = digest.value();
    return std::move(r_);
  }

 private:
  void install() {
    treesat::obs::install_metrics(obs_ == Obs::kNone ? nullptr : &registry_);
    treesat::obs::install_trace(obs_ == Obs::kRegistryAndTrace ? &recorder_ : nullptr);
  }
  static void uninstall() {
    treesat::obs::install_trace(nullptr);
    treesat::obs::install_metrics(nullptr);
  }

  const Trace& trace_;
  Obs obs_;
  fs::path spill_;
  treesat::obs::MetricsRegistry registry_;
  treesat::obs::TraceRecorder recorder_{/*timing=*/true};
  std::optional<treesat::SolverService> service_;
  std::size_t next_ = 0;
  Replay r_;
};

Replay replay(const std::string& workload, const Trace& trace, const fs::path& run_dir, Obs obs) {
  ServiceRun run(workload, trace, run_dir, "replay", obs);
  while (!run.done()) run.step();
  return run.finish();
}

/// One more set-up of a fresh service, timed the way a replay times its
/// own: construction until every tenant is warm. The service is discarded.
double time_setup(const std::string& workload, const Trace& trace, const fs::path& run_dir) {
  ServiceRun run(workload, trace, run_dir, "setup", Obs::kRegistry);
  while (!run.warm()) run.step();
  return run.setup_seconds();
}

// --- result line ------------------------------------------------------------

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Result {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> failures;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& why) {
    correct = false;
    failures.push_back(why);
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }

  int print(const Args& a) const {
    for (const std::string& f : failures) std::cerr << "CHECK FAILED: " << f << "\n";
    std::cout << "{\"host\":{\"hardware_threads\":" << std::thread::hardware_concurrency()
              << ",\"isa\":\"" << treesat::simd::active_isa() << "\",\"compiler\":\""
              << PERFBENCH_COMPILER << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
              << "\",\"workload\":\"" << a.workload << "\",\"seed\":" << a.seed << "}}\n";
    std::cout << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
              << ",\"failed\":" << failed << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i) std::cout << ',';
      std::cout << '"' << metrics[i].first << "\":{\"value\":" << number(metrics[i].second.first)
                << ",\"unit\":\"" << metrics[i].second.second << "\"}";
    }
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
  }
};

/// Peak resident memory of this process so far.
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// What a layered pipeline pass measured.
struct PipelineRun {
  std::vector<SpanRec> spans;
  PipelineCounts counts;
  double wall_seconds = 0.0;  ///< time inside Pipeline::handle
  std::uint64_t merge_points_generated = 0;
  std::uint64_t merge_points_kept = 0;
  std::size_t store_spills = 0;  ///< the pipeline store's own counters
  std::size_t store_reloads = 0;
};

/// The layered pipeline (pipeline.hpp) fed the lines a service replay
/// answers, one at a time, with a metrics registry installed as the
/// service has. compare() checks each answer against the service's.
class LayeredRun {
 public:
  LayeredRun(const std::string& workload, const Trace& trace, const fs::path& run_dir,
             bool probes)
      : trace_(trace), next_(starts_from_checkpoint(workload) ? trace.setup_lines : 0) {
    const fs::path spill = run_dir / "pipeline_spill";
    const fs::path probe = run_dir / "probe";
    fresh_dir(spill);
    fresh_dir(probe);
    treesat::obs::install_metrics(&registry_);
    pipeline_.emplace(service_options(trace.mem_budget, spill.string()), probes, probe);
    if (next_ != 0) pipeline_->restore(checkpoint_dir(run_dir).string());
  }
  LayeredRun(const LayeredRun&) = delete;
  LayeredRun& operator=(const LayeredRun&) = delete;
  ~LayeredRun() {
    treesat::obs::install_trace(nullptr);
    treesat::obs::install_metrics(nullptr);
  }

  [[nodiscard]] bool done() const { return next_ == trace_.lines.size(); }

  std::string step() {
    treesat::obs::install_metrics(&registry_);
    treesat::obs::install_trace(nullptr);
    const Clock::time_point before = Clock::now();
    std::string response = pipeline_->handle(trace_.lines[next_], static_cast<std::uint32_t>(next_));
    wall_seconds_ += seconds_since(before);
    ++next_;
    return response;
  }

  /// A stats response is the service's telemetry document, which the
  /// pipeline does not rebuild; every other response must be identical.
  void compare(const std::string& service_response, const std::string& mine, Result& result) {
    if (json_field(service_response, "op") == "stats") return;
    const std::string why = response_mismatch(service_response, mine);
    if (!why.empty() && mismatches_++ < 3) result.fail(why);
  }

  PipelineRun finish(bool warm_vs_cold, Result& result) {
    treesat::obs::install_metrics(nullptr);
    PipelineRun out;
    const auto det = treesat::obs::MetricClass::kDeterministic;
    out.merge_points_generated =
        registry_.counter("treesat_dp_merge_points_generated_total", "", det).value();
    out.merge_points_kept = registry_.counter("treesat_dp_merge_points_kept_total", "", det).value();
    out.wall_seconds = wall_seconds_;
    out.spans = pipeline_->spans();
    out.counts = pipeline_->counts();
    out.store_spills = pipeline_->store_spills();
    out.store_reloads = pipeline_->store_reloads();
    result.check(mismatches_ == 0,
                 std::to_string(mismatches_) + " pipeline responses differ from the service's");
    result.check(out.counts.errors == 0, "the layered pipeline answered with errors");
    if (warm_vs_cold) {
      for (const std::string& f : pipeline_->warm_equals_cold()) result.fail(f);
    }
    return out;
  }

 private:
  const Trace& trace_;
  std::size_t next_;
  treesat::obs::MetricsRegistry registry_;
  std::optional<Pipeline> pipeline_;
  double wall_seconds_ = 0.0;
  std::size_t mismatches_ = 0;
};

/// A whole pipeline pass over the lines `reference` answered.
PipelineRun run_pipeline(const std::string& workload, const Trace& trace,
                         const fs::path& run_dir, const Replay& reference, bool probes,
                         bool warm_vs_cold, Result& result) {
  LayeredRun run(workload, trace, run_dir, probes);
  for (std::size_t i = 0; !run.done(); ++i) run.compare(reference.responses[i], run.step(), result);
  return run.finish(warm_vs_cold, result);
}

void check_replay(const Trace& trace, const Replay& first, const Replay& r, Result& result) {
  result.check(r.digest == first.digest, "response digest differs between replays: " +
                                             hex16(first.digest) + " vs " + hex16(r.digest));
  if (!trace.straight_digest.empty()) {
    result.check(hex16(r.digest) == trace.straight_digest,
                 "responses after the restore differ from a straight replay's (" +
                     hex16(r.digest) + " vs " + trace.straight_digest + ")");
  }
  result.check(r.failed == 0, std::to_string(r.failed) + " error responses in a replay");
}

void check_counts(const Replay& first, const Replay& r, Result& result) {
  result.check(r.counts == first.counts, "deterministic counts differ between replays: " +
                                             first.counts.describe() + " vs " +
                                             r.counts.describe());
}

/// The pipeline must have done the service's work: the same merge points,
/// and a store that spilled and reloaded exactly as the service's did.
void check_pipeline(const Replay& first, const PipelineRun& p, Result& result) {
  result.check(p.merge_points_generated == first.counts.merge_points_generated,
               "the pipeline's merge points differ from the service's");
  result.check(p.store_spills == first.counts.spills && p.store_reloads == first.counts.reloads,
               "the pipeline's store spilled/reloaded " + std::to_string(p.store_spills) + "/" +
                   std::to_string(p.store_reloads) + " times, the service's " +
                   std::to_string(first.counts.spills) + "/" +
                   std::to_string(first.counts.reloads));
}

/// The untimed first replay every run starts with: it brings caches and the
/// allocator to their steady state and is the reference later replays and
/// the pipeline are checked against.
Replay reference_replay(const Args& a, const Trace& trace, Result& result) {
  pin_next_core();
  Replay first = replay(a.workload, trace, a.dir, Obs::kRegistry);
  check_replay(trace, first, first, result);
  result.attempted += first.responses.size();
  result.failed += first.failed;
  return first;
}

// --- run: end-to-end metrics ------------------------------------------------

int run_timed(const Args& a) {
  const Trace trace = load_trace(a.dir);
  Result result;
  const Replay first = reference_replay(a, trace, result);
  std::vector<Op> ops;
  for (std::size_t i = first.first_line; i < trace.lines.size(); ++i) {
    ops.push_back(i < trace.setup_lines ? Op::kOther : op_of(trace.lines[i]));
  }

  const std::size_t setups = setups_per_replay(a.workload);
  std::vector<double> setup_s;
  std::vector<double> rate;
  std::vector<double> perturb_ms;
  std::vector<double> solve_ms;
  double peak_rss = 0.0;
  const Clock::time_point t0 = Clock::now();
  constexpr std::size_t kMinReplays = 3;
  std::size_t replays = 0;
  while (replays < kMinReplays || seconds_since(t0) < a.seconds) {
    pin_next_core();
    for (std::size_t k = 1; k < setups; ++k) {
      setup_s.push_back(time_setup(a.workload, trace, a.dir));
    }
    const Replay r = replay(a.workload, trace, a.dir, Obs::kRegistry);
    check_replay(trace, first, r, result);
    check_counts(first, r, result);
    result.attempted += r.responses.size();
    result.failed += r.failed;
    setup_s.push_back(r.setup_seconds);
    rate.push_back(static_cast<double>(trace.lines.size() - trace.setup_lines) / r.timed_seconds);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i] == Op::kPerturb) perturb_ms.push_back(r.latency[i] * 1e3);
      if (ops[i] == Op::kSolve) solve_ms.push_back(r.latency[i] * 1e3);
    }
    // Every replay reaches the program's peak. Read it at a fixed replay,
    // before the pooled samples above grow with the run's throughput.
    if (++replays == kMinReplays) peak_rss = peak_rss_mib();
  }
  check_pipeline(first,
                 run_pipeline(a.workload, trace, a.dir, first, /*probes=*/false,
                              /*warm_vs_cold=*/true, result),
                 result);

  double p50 = 0.0;
  double p99 = 0.0;
  double s50 = 0.0;
  try {
    p50 = percentile(perturb_ms, 0.50);
    p99 = percentile(perturb_ms, 0.99);
    s50 = percentile(solve_ms, 0.50);
  } catch (const std::invalid_argument& e) {
    result.fail(e.what());
  }
  std::cout << a.workload << ": " << replays << " timed replays of "
            << trace.lines.size() - trace.setup_lines << " requests after a "
            << trace.setup_lines << "-line warm-up; samples: perturb_p50_ms/perturb_p99_ms "
            << perturb_ms.size() << ", solve_p50_ms " << solve_ms.size() << ", setup_s "
            << setup_s.size() << " (" << setups << " set-ups per replay)\n";
  result.metric("req_per_s", median(rate), "1/s");
  result.metric("perturb_p50_ms", p50, "ms");
  result.metric("perturb_p99_ms", p99, "ms");
  result.metric("solve_p50_ms", s50, "ms");
  result.metric("success_rate",
                static_cast<double>(result.attempted - result.failed) /
                    static_cast<double>(result.attempted),
                "ratio");
  result.metric("peak_rss_mb", peak_rss, "MiB");
  result.metric("setup_s", median(setup_s), "s");
  return result.print(a);
}

// --- traced: per-layer metrics ----------------------------------------------

/// One per-layer metric of one round.
struct LayerMetric {
  const char* name;
  double value;
  const char* unit;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-span-name totals of one pipeline pass.
struct SpanTotals {
  std::size_t count[kSpanNameCount] = {};
  double seconds[kSpanNameCount] = {};       ///< summed durations
  double self_seconds[kSpanNameCount] = {};  ///< summed self times

  explicit SpanTotals(const std::vector<SpanRec>& spans) {
    const std::vector<double> self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      ++count[spans[i].name];
      seconds[spans[i].name] += spans[i].end - spans[i].start;
      self_seconds[spans[i].name] += self[i];
    }
  }
  [[nodiscard]] double mean_us(std::uint32_t name) const {
    return ratio(seconds[name] * 1e6, static_cast<double>(count[name]));
  }
};

/// The per-layer metrics of one round, in BENCHMARK.json's per_layer order:
/// the handle_line replays with the registry (`timed`), with nothing
/// installed (`bare`) and with the TraceRecorder too (`traced`), the
/// pipeline pass over the same lines in lockstep with them (`p`), and the
/// pipeline pass with side probes (`probed`). Layer time is the self time
/// of the pipeline's layer spans; the service layer is what handle_line
/// spent beyond them.
std::vector<LayerMetric> layer_metrics(const Replay& timed, const Replay& bare,
                                       const Replay& traced, const PipelineRun& p,
                                       const PipelineRun& probed,
                                       std::vector<std::string>* table) {
  const SpanTotals t(p.spans);
  const SpanTotals probes(probed.spans);
  const PipelineCounts& c = p.counts;
  double handle_line = 0.0;
  for (const double l : timed.latency) handle_line += l;
  double layer[kLayerCount] = {};
  for (std::uint32_t name = 0; name < kSpanNameCount; ++name) {
    if (name != kReq) layer[static_cast<std::size_t>(span_layer(name))] += t.self_seconds[name];
  }
  double below = 0.0;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    if (l != static_cast<std::size_t>(Layer::kService) &&
        l != static_cast<std::size_t>(Layer::kProbe)) {
      below += layer[l];
    }
  }
  layer[static_cast<std::size_t>(Layer::kService)] = handle_line - below;
  const auto share = [&](Layer l) { return ratio(layer[static_cast<std::size_t>(l)], handle_line); };
  const auto count = [](std::size_t n) { return static_cast<double>(n); };
  const auto total = [](const Replay& r) { return r.setup_seconds + r.timed_seconds; };
  const double core_seconds =
      t.seconds[kCoreInitial] + t.seconds[kCoreResolveWarm] + t.seconds[kCoreResolveCold];

  std::vector<LayerMetric> m = {
      {"protocol.parse_us", t.mean_us(kProtocolParse), "us"},
      {"protocol.emit_us", t.mean_us(kProtocolEmit), "us"},
      {"protocol.share", share(Layer::kProtocol), "ratio"},
      {"service.self_us", ratio(layer[0] * 1e6, count(c.requests)), "us"},
      {"service.share", share(Layer::kService), "ratio"},
      {"tree.parse_us", t.mean_us(kTreeParse), "us"},
      {"tree.parse_mb_per_s", ratio(count(c.tree_text_bytes) / 1e6, t.seconds[kTreeParse]),
       "MB/s"},
      {"tree.share", share(Layer::kTree), "ratio"},
      {"store.lookup_us", t.mean_us(kStoreLookup), "us"},
      {"store.hit_ratio", ratio(count(c.memory_hits), count(c.memory_hits + c.reloads)),
       "ratio"},
      {"store.refresh_us", t.mean_us(kStoreRefresh), "us"},
      {"store.budget_us", t.mean_us(kStoreBudget), "us"},
      {"store.share", share(Layer::kStore), "ratio"},
      {"core.resolve_warm_us", t.mean_us(kCoreResolveWarm), "us"},
      {"core.resolve_cold_us", t.mean_us(kCoreResolveCold), "us"},
      {"core.initial_us", t.mean_us(kCoreInitial), "us"},
      {"core.apply_us", probes.mean_us(kProbeApply), "us"},
      {"core.regions_reused_ratio", ratio(count(c.regions_reused), count(c.regions_total)),
       "ratio"},
      {"core.colours_reused_ratio", ratio(count(c.colours_reused), count(c.colours_total)),
       "ratio"},
      {"core.cold_ratio", ratio(count(c.resolves_cold), count(c.resolves_warm + c.resolves_cold)),
       "ratio"},
      {"core.merge_points", count(p.merge_points_generated), "count"},
      {"core.prune_ratio",
       1.0 - ratio(count(p.merge_points_kept), count(p.merge_points_generated)), "ratio"},
      {"core.ns_per_merge_point", ratio(core_seconds * 1e9, count(p.merge_points_generated)),
       "ns"},
      {"core.share", share(Layer::kCore), "ratio"},
      {"storage.spill_us", ratio(t.seconds[kStorageSpill] * 1e6, count(c.spilled_sessions)),
       "us"},
      {"storage.reload_us", t.mean_us(kStorageReload), "us"},
      {"storage.export_us", probes.mean_us(kProbeExport), "us"},
      {"storage.encode_us", probes.mean_us(kProbeEncode), "us"},
      {"storage.io_us", probes.mean_us(kProbeIo), "us"},
      {"storage.decode_us", probes.mean_us(kProbeDecode), "us"},
      {"storage.import_us", probes.mean_us(kProbeImport), "us"},
      {"storage.snapshot_kb",
       ratio(count(probed.counts.snapshot_bytes) / 1024.0, count(probed.counts.snapshot_probes)),
       "KiB"},
      {"storage.spills", count(c.spilled_sessions), "count"},
      {"storage.reloads", count(c.reloads), "count"},
      {"storage.share", share(Layer::kStorage), "ratio"},
      {"obs.registry_overhead_ratio", ratio(total(timed), total(bare)), "ratio"},
      {"obs.trace_overhead_ratio", ratio(total(traced), total(timed)), "ratio"},
      {"obs.unattributed_share", traced.unattributed_share, "ratio"},
      {"traced.attributed_share", ratio(t.seconds[kReq] - t.self_seconds[kReq], p.wall_seconds),
       "ratio"},
  };

  if (table != nullptr) {
    char row[160];
    table->clear();
    std::snprintf(row, sizeof row, "%-10s %10s %12s %8s", "layer", "spans", "self ms", "share");
    table->push_back(row);
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      std::size_t spans = 0;
      for (std::uint32_t name = 0; name < kSpanNameCount; ++name) {
        if (static_cast<std::size_t>(span_layer(name)) == l) spans += t.count[name];
      }
      if (l == static_cast<std::size_t>(Layer::kProbe)) continue;
      std::snprintf(row, sizeof row, "%-10s %10zu %12.3f %8.4f", layer_name(static_cast<Layer>(l)),
                    spans, layer[l] * 1e3, ratio(layer[l], handle_line));
      table->push_back(row);
    }
    std::snprintf(row, sizeof row, "%-22s %8s %12s %10s", "span", "count", "total ms", "mean us");
    table->push_back(row);
    for (std::uint32_t name = 0; name < kSpanNameCount; ++name) {
      const SpanTotals& from = span_layer(name) == Layer::kProbe ? probes : t;
      if (from.count[name] == 0) continue;
      std::snprintf(row, sizeof row, "%-22s %8zu %12.3f %10.2f", span_name(name),
                    from.count[name], from.seconds[name] * 1e3, from.mean_us(name));
      table->push_back(row);
    }
  }
  return m;
}

/// The traced pass. Each round feeds every line to four systems in
/// lockstep, rotating which goes first so none always meets the caches the
/// others left:
///   A  SolverService, registry installed (the untraced configuration)
///   B  SolverService, nothing installed        -> obs.registry_overhead_ratio
///   C  SolverService, registry + TraceRecorder -> obs.trace_overhead_ratio,
///                                                 obs.unattributed_share
///   D  the layered pipeline                    -> layer times, against A's
/// Lockstep keeps the comparisons fair on a host whose speed drifts by
/// several percent within seconds. A last pass of the pipeline with its
/// side probes on gives the probe metrics. Each metric is the median over
/// rounds; rounds repeat until the time is spent.
int run_traced(const Args& a) {
  const Trace trace = load_trace(a.dir);
  Result result;
  const Replay first = reference_replay(a, trace, result);
  std::vector<LayerMetric> last;
  std::vector<std::vector<double>> rounds;  ///< per metric of `last`, one value per round
  std::vector<std::string> table;
  const Clock::time_point t0 = Clock::now();
  std::size_t round = 0;
  for (; round == 0 || seconds_since(t0) < a.seconds; ++round) {
    pin_next_core();
    ServiceRun with_registry(a.workload, trace, a.dir, "a", Obs::kRegistry);
    ServiceRun bare(a.workload, trace, a.dir, "b", Obs::kNone);
    ServiceRun traced(a.workload, trace, a.dir, "c", Obs::kRegistryAndTrace);
    LayeredRun layered(a.workload, trace, a.dir, /*probes=*/false);
    std::string mine;
    for (std::size_t line = 0; !with_registry.done(); ++line) {
      for (std::size_t k = 0; k < 4; ++k) {
        switch ((line + k) % 4) {
          case 0: with_registry.step(); break;
          case 1: bare.step(); break;
          case 2: traced.step(); break;
          default: mine = layered.step(); break;
        }
      }
      layered.compare(with_registry.last_response(), mine, result);
    }
    const Replay a_run = with_registry.finish();
    const Replay b_run = bare.finish();
    const Replay c_run = traced.finish();
    const PipelineRun d_run = layered.finish(/*warm_vs_cold=*/round == 0, result);
    for (const Replay* r : {&a_run, &b_run, &c_run}) {
      check_replay(trace, first, *r, result);
      result.attempted += r->responses.size();
      result.failed += r->failed;
    }
    check_counts(first, a_run, result);
    check_counts(first, c_run, result);
    result.check(c_run.dropped_spans == 0, "the TraceRecorder dropped spans");
    check_pipeline(first, d_run, result);
    const PipelineRun probed = run_pipeline(a.workload, trace, a.dir, a_run, /*probes=*/true,
                                            /*warm_vs_cold=*/false, result);
    last = layer_metrics(a_run, b_run, c_run, d_run, probed, &table);
    rounds.resize(last.size());
    for (std::size_t i = 0; i < last.size(); ++i) rounds[i].push_back(last[i].value);
  }
  std::cout << a.workload << ": traced pass, " << round << " round(s); last round's table "
            << "(self time; shares of handle_line time):\n";
  for (const std::string& row : table) std::cout << "  " << row << "\n";
  for (std::size_t i = 0; i < last.size(); ++i) {
    result.metric(last[i].name, median(rounds[i]), last[i].unit);
  }
  return result.print(a);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args a = perfbench::parse_args(argc, argv);
    if (a.mode == "gen") return perfbench::run_gen(a);
    if (a.mode == "run") return perfbench::run_timed(a);
    if (a.mode == "traced") return perfbench::run_traced(a);
    std::cerr << "perfbench: unknown mode " << a.mode << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
