// treesat_serve: the stdin/file frontend of the multi-tenant solver
// service (src/service/service.hpp).
//
//   $ treesat_serve [--config "shards=4,mem_budget=64m"] [trace.jsonl]
//   $ treesat_serve --config "mem_budget=64m,spill_dir=spill" < trace.jsonl
//   $ treesat_serve --gen-trace 200 --seed 7 > trace.jsonl
//
// Reads one JSON request per line (from the trace file, or stdin when no
// file is given), writes one JSON response per line to stdout. Blank lines
// and lines starting with '#' are skipped, so traces can be annotated.
// --gen-trace emits a deterministic mixed-tenant traffic trace
// (workload/traffic.hpp) instead of serving -- the tool is its own load
// generator, and the committed golden trace under tests/golden/ was
// produced exactly this way.
//
// Exit codes: 0 = stream served to completion (error *responses* do not
// fail the process; they are part of the protocol), 1 = fail_fast abort or
// a fatal error, 2 = usage / configuration errors.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "common/parse.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"
#include "workload/traffic.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options] [trace.jsonl]\n"
      << "  --config SPEC      service config: shards=,mem_budget=,spill_dir=,\n"
      << "                     spill_budget=,deadline_ms=,fail_fast=,plan=,degrade=,\n"
      << "                     fault= (see parse_service_config)\n"
      << "  --restore DIR      restore a checkpoint before serving\n"
      << "  --checkpoint-dir DIR  write a checkpoint after the stream ends\n"
      << "  --plan SPEC        default plan for solve requests without one\n"
      << "  --trace-out PATH   record request/solver spans while serving and write\n"
      << "                     a chrome://tracing JSON file when the stream ends\n"
      << "  --metrics-out PATH write the Prometheus text exposition (deterministic\n"
      << "                     families first, wall-clock after the marker, request\n"
      << "                     latency among them) on exit\n"
      << "  --gen-trace TICKS  emit a deterministic traffic trace and exit\n"
      << "  --gen-stress N     emit a deterministic adversarial stress trace\n"
      << "                     (N arrival slots; workload/traffic.hpp stress_trace)\n"
      << "  --tenants N        tenants for --gen-trace/--gen-stress\n"
      << "  --seed S           seed for --gen-trace/--gen-stress\n"
      << "  --p-degrade P      fraction of stress solve/perturb lines stamped\n"
      << "                     with the recorded \"degrade\":true decision\n"
      << "  --max-nodes N      upper bound of the stress instance size draw\n"
      << "with no trace file, requests are read from stdin\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace treesat;
  std::string config_spec;
  std::string restore_dir;
  std::string checkpoint_dir;
  std::string plan_flag;
  std::string trace_out;
  std::string metrics_out;
  std::string trace_file;
  bool gen_trace = false;
  bool gen_stress = false;
  TrafficOptions traffic;
  StressOptions stress;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // A numeric flag's value parses whole (common/parse.hpp) or exits 2.
    const auto number = [&](auto parse, const char* expected) {
      const char* value = next();
      const auto parsed = parse(value);
      if (!parsed) {
        std::cerr << argv[0] << ": " << arg << " needs " << expected << ", got '" << value
                  << "'\n";
        std::exit(2);
      }
      return *parsed;
    };
    const auto count = [&] {
      return static_cast<std::size_t>(number(parse_u64, "an unsigned integer"));
    };
    if (arg == "--config") {
      config_spec = next();
    } else if (arg == "--restore") {
      restore_dir = next();
    } else if (arg == "--checkpoint-dir") {
      checkpoint_dir = next();
    } else if (arg == "--plan") {
      plan_flag = next();
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--gen-trace") {
      gen_trace = true;
      traffic.ticks = count();
    } else if (arg == "--gen-stress") {
      gen_stress = true;
      stress.requests = count();
    } else if (arg == "--tenants") {
      traffic.tenants = count();
      stress.tenants = traffic.tenants;
    } else if (arg == "--seed") {
      traffic.seed = number(parse_u64, "an unsigned integer");
      stress.seed = traffic.seed;
    } else if (arg == "--p-degrade") {
      stress.p_degrade = number(
          [](std::string_view value) {
            const std::optional<double> p = parse_double(value);
            return p && *p >= 0.0 && *p <= 1.0 ? p : std::nullopt;
          },
          "a probability in [0, 1]");
    } else if (arg == "--max-nodes") {
      stress.max_nodes = count();
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << argv[0] << ": unknown flag " << arg << "\n";
      return usage(argv[0]);
    } else {
      trace_file = arg;
    }
  }

  try {
    if (gen_stress) {
      const TrafficTrace trace = stress_trace(stress);
      std::cout << "# treesat-serve stress trace: seed=" << stress.seed
                << " tenants=" << stress.tenants << " requests=" << stress.requests
                << " p_degrade=" << stress.p_degrade << " (submits=" << trace.submits
                << " solves=" << trace.solves << " perturbs=" << trace.perturbs
                << " stats=" << trace.stats_polls << " evicts=" << trace.evicts
                << " degrade_flags=" << trace.degrade_flags << ")\n";
      for (const std::string& line : trace.lines) std::cout << line << '\n';
      return 0;
    }
    if (gen_trace) {
      const TrafficTrace trace = traffic_trace(traffic);
      std::cout << "# treesat-serve trace: seed=" << traffic.seed
                << " tenants=" << traffic.tenants << " ticks=" << traffic.ticks
                << " (submits=" << trace.submits << " solves=" << trace.solves
                << " perturbs=" << trace.perturbs << " stats=" << trace.stats_polls
                << " evicts=" << trace.evicts << ")\n";
      for (const std::string& line : trace.lines) std::cout << line << '\n';
      return 0;
    }

    ServiceOptions options = parse_service_config(config_spec);
    // --plan overrides plan=: the config grammar splits on commas, so a
    // default plan spec with several keys can only be set this way.
    if (!plan_flag.empty()) options.plan = plan_flag;

    // Observability: the registry is installed whenever we serve, so the
    // protocol-level {"op":"metrics"} request works out of the box; the
    // span recorder only when --trace-out asked for it (timing on -- the
    // trace file is a diagnostic artifact, never part of the response
    // stream, so wall-clock there is fine).
    treesat::obs::MetricsRegistry registry;
    treesat::obs::install_metrics(&registry);
    treesat::obs::TraceRecorder recorder;
    if (!trace_out.empty()) {
      recorder.set_timing(true);
      recorder.set_enabled(true);
      treesat::obs::install_trace(&recorder);
    }

    SolverService service(std::move(options));
    // Zero-rewarm restart: load the previous process's checkpoint before
    // the first request, so warm traffic resumes without re-solving.
    if (!restore_dir.empty()) service.restore_from(restore_dir);

    std::ifstream file;
    if (!trace_file.empty()) {
      file.open(trace_file);
      if (!file) {
        std::cerr << argv[0] << ": cannot open " << trace_file << "\n";
        return 2;
      }
    }
    std::istream& in = trace_file.empty() ? std::cin : file;
    const std::size_t errors = service.serve(in, std::cout);
    if (!checkpoint_dir.empty()) service.checkpoint_to(checkpoint_dir);
    // Diagnostic artifacts are written even when the stream had error
    // responses -- a failing run is exactly when the trace matters.
    if (!metrics_out.empty()) {
      static_cast<void>(service.telemetry());  // writes the service families
      std::ofstream out(metrics_out);
      if (!out) {
        std::cerr << argv[0] << ": cannot write " << metrics_out << "\n";
        return 2;
      }
      out << registry.exposition(/*include_wallclock=*/true);
    }
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      if (!out) {
        std::cerr << argv[0] << ": cannot write " << trace_out << "\n";
        return 2;
      }
      out << recorder.chrome_trace_json() << '\n';
      treesat::obs::install_trace(nullptr);
    }
    treesat::obs::install_metrics(nullptr);
    if (errors > 0 && service.options().fail_fast) {
      std::cerr << argv[0] << ": aborted after the first error response (fail_fast)\n";
      return 1;
    }
    if (errors > 0) {
      std::cerr << argv[0] << ": served with " << errors << " error response(s)\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 2;
  }
}
