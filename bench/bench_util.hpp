// Shared plumbing for the experiment binaries: section banners and a tiny
// wall-clock repeat-timer. The binaries print the regenerated paper
// artefacts as aligned tables (captured into bench_output.txt /
// EXPERIMENTS.md); google-benchmark is used where statement-level timing is
// the point (the scaling experiments).
#pragma once

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "common/json.hpp"
#include "common/stopwatch.hpp"
#include "core/registry.hpp"
#include "core/solver.hpp"
#include "platform/simd.hpp"

namespace treesat::bench {

/// Machine-readable mirror of a bench binary's headline numbers. Every
/// bench_* binary accepts `--json <path>`; when present, the scalars and
/// labelled metric rows recorded here are written to that path as
/// BENCH_<name>.json-style output, so the perf trajectory is tracked across
/// PRs (bench_diff compares two such files, and ci.sh's TREESAT_BENCH=1
/// smoke stage archives them). Without the flag everything is a no-op.
/// Every file records its host class -- hardware threads, the active SIMD
/// kernel ISA, compiler and build type, the fields perfbench prints -- and
/// bench_diff refuses to compare files from different classes.
///
///   int main(int argc, char** argv) {
///     treesat::bench::BenchJson::init("bench_chain", &argc, argv);
///     ...
///     treesat::bench::json().set("instances", 12.0);
///     treesat::bench::json().add_row("n=64", {{"wall_ms", 3.2}});
///     return treesat::bench::json().write() ? 0 : 1;
///   }
class BenchJson {
 public:
  /// Parses and strips `--json <path>` from argv (so google-benchmark
  /// binaries can hand the remaining flags to benchmark::Initialize).
  /// `--json` without a path is a usage error and exits 2 -- silently
  /// ignoring it would drop the results a CI stage relies on.
  static void init(std::string bench_name, int* argc = nullptr, char** argv = nullptr) {
    instance().name_ = std::move(bench_name);
    if (argc == nullptr || argv == nullptr) return;
    for (int i = 1; i < *argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        if (i + 1 >= *argc) {
          std::cerr << instance().name_ << ": --json needs a path\n";
          std::exit(2);
        }
        instance().path_ = argv[i + 1];
        for (int k = i; k + 2 < *argc; ++k) argv[k] = argv[k + 2];
        *argc -= 2;
        break;
      }
    }
  }

  static BenchJson& instance() {
    static BenchJson self;
    return self;
  }

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  void set(const std::string& key, double value) { scalars_.emplace_back(key, value); }
  void set(const std::string& key, const std::string& value) { scalars_.emplace_back(key, value); }

  void add_row(const std::string& label,
               std::vector<std::pair<std::string, double>> metrics) {
    rows_.push_back({label, std::move(metrics)});
  }

  /// Writes the file (no-op without --json). Missing parent directories
  /// are created first -- a bench archiving into a fresh build tree must
  /// not lose its results to a mkdir the caller forgot. Returns false with
  /// a diagnostic (the OS error included) when the path cannot be written,
  /// so mains propagate a non-zero exit instead of silently dropping the
  /// run.
  bool write() const {
    if (!enabled()) return true;
    const std::filesystem::path path(path_);
    if (path.has_parent_path()) {
      std::error_code ec;  // surfaced below through the open failure
      std::filesystem::create_directories(path.parent_path(), ec);
    }
    errno = 0;
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "BenchJson: cannot write " << path_ << ": "
                << (errno != 0 ? std::strerror(errno) : "open failed")
                << " (--json results would be lost)\n";
      return false;
    }
    JsonLineWriter w;
    w.field_str("bench", name_)
        .begin_object("host")
        .field_uint("hardware_threads", std::thread::hardware_concurrency())
        .field_str("isa", simd::active_isa())
        .field_str("compiler", TREESAT_BENCH_COMPILER)
        .field_str("build_type", TREESAT_BENCH_BUILD_TYPE)
        .end_object()
        .begin_object("scalars");
    for (const auto& [key, value] : scalars_) {
      if (const double* number = std::get_if<double>(&value)) {
        w.field_num(key, *number);
      } else {
        w.field_str(key, std::get<std::string>(value));
      }
    }
    w.end_object().begin_array("rows");
    for (const Row& row : rows_) {
      w.begin_object().field_str("label", row.label);
      for (const auto& [key, value] : row.metrics) w.field_num(key, value);
      w.end_object();
    }
    w.end_array();
    out << w.finish() << '\n';
    out.flush();
    if (!out) {
      std::cerr << "BenchJson: short write to " << path_ << "\n";
      return false;
    }
    return true;
  }

 private:
  struct Row {
    std::string label;
    std::vector<std::pair<std::string, double>> metrics;
  };

  std::string name_;
  std::string path_;
  std::vector<std::pair<std::string, std::variant<double, std::string>>> scalars_;
  std::vector<Row> rows_;
};

inline BenchJson& json() { return BenchJson::instance(); }

/// Solves with a registry spec ("genetic:seed=17"): the shared path of the
/// method-comparison benches, so method names and option spellings come
/// from core/registry.hpp instead of per-bench string literals.
inline SolveReport solve_spec(const Colouring& colouring, const std::string& spec) {
  return solve(colouring, parse_plan(spec));
}

/// Display label of a method, straight from the registry.
inline std::string method_label(SolveMethod method) {
  return method_info(method).name;
}

inline void banner(const std::string& experiment, const std::string& title) {
  std::cout << "\n=== " << experiment << ": " << title << " ===\n";
}

inline void note(const std::string& text) { std::cout << "  " << text << "\n"; }

/// Median-ish wall time of `fn` over `reps` runs (returns seconds).
template <typename Fn>
double time_run(Fn&& fn, int reps = 5) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const Stopwatch watch;
    fn();
    best = std::min(best, watch.seconds());
  }
  return best;
}

}  // namespace treesat::bench
