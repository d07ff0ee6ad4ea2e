// bench_diff: the perf-trajectory regression gate. Compares two BENCH_*.json
// files (as emitted by any bench binary's --json flag; see
// bench/bench_util.hpp) and exits non-zero when the current run regresses
// more than the tolerance against the committed baseline:
//
//   bench_diff <baseline.json> <current.json> [--tolerance 0.25] [--keys substr]
//
// Direction is inferred from the metric name: *_ms / *_seconds and metrics
// containing "overhead" are lower-is-better (regression when
// current > baseline * (1 + tol)), metrics containing "speedup" or "ratio"
// are higher-is-better (regression when current < baseline / (1 + tol));
// everything else is informational. The "overhead" rule outranks the
// "ratio" rule, so an overhead *ratio* still gates in the right direction.
// --keys restricts the comparison to metric names containing the substring
// -- ci.sh's TREESAT_BENCH stage uses "--keys speedup" so the gate tracks
// machine-relative ratios instead of absolute wall times, which would be
// flaky across hosts. Scalars are matched by name, rows by label; a metric
// or row missing from the current file is itself a failure (a silently
// dropped measurement must not read as a pass).
//
// Ratios are only comparable within one host class: the "host" object
// every bench writes (hardware threads, SIMD kernel ISA, compiler, build
// type; see bench/bench_util.hpp) must match field for field, and a
// baseline without one counts as a different class. On a mismatch
// bench_diff compares nothing and exits 3 -- re-record the baseline on the
// current host class instead.
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace {

// --- a minimal parser for the flat JSON the benches emit -----------------

struct Parser {
  std::string text;
  std::size_t at = 0;

  [[noreturn]] void fail(const std::string& why) const {
    std::cerr << "bench_diff: parse error at byte " << at << ": " << why << "\n";
    std::exit(2);
  }

  void skip_ws() {
    while (at < text.size() && std::isspace(static_cast<unsigned char>(text[at]))) ++at;
  }

  char peek() {
    skip_ws();
    if (at >= text.size()) fail("unexpected end of input");
    return text[at];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++at;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (at < text.size() && text[at] != '"') {
      if (text[at] == '\\' && at + 1 < text.size()) ++at;  // keep escaped char verbatim
      out += text[at++];
    }
    expect('"');
    return out;
  }

  double parse_number() {
    skip_ws();
    const std::size_t start = at;
    while (at < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[at])) || text[at] == '-' ||
            text[at] == '+' || text[at] == '.' || text[at] == 'e' || text[at] == 'E')) {
      ++at;
    }
    if (at == start) fail("expected a number");
    return std::strtod(text.substr(start, at - start).c_str(), nullptr);
  }

  /// Parses one object of string or number values into (strings, numbers).
  void parse_flat_object(std::map<std::string, std::string>& strings,
                         std::map<std::string, double>& numbers) {
    expect('{');
    if (peek() == '}') {
      ++at;
      return;
    }
    while (true) {
      const std::string key = parse_string();
      expect(':');
      if (peek() == '"') {
        strings[key] = parse_string();
      } else {
        numbers[key] = parse_number();
      }
      if (peek() == ',') {
        ++at;
        continue;
      }
      expect('}');
      break;
    }
  }
};

struct Row {
  std::string label;
  std::map<std::string, double> metrics;
};

struct BenchDoc {
  std::string bench;
  bool has_host = false;
  std::map<std::string, std::string> host_strings;
  std::map<std::string, double> host_numbers;
  std::map<std::string, double> scalars;
  std::vector<Row> rows;

  [[nodiscard]] const Row* row(const std::string& label) const {
    for (const Row& r : rows) {
      if (r.label == label) return &r;
    }
    return nullptr;
  }
};

BenchDoc load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_diff: cannot read " << path << "\n";
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Parser p{buffer.str()};

  BenchDoc doc;
  p.expect('{');
  while (true) {
    const std::string key = p.parse_string();
    p.expect(':');
    if (key == "bench") {
      doc.bench = p.parse_string();
    } else if (key == "host") {
      doc.has_host = true;
      p.parse_flat_object(doc.host_strings, doc.host_numbers);
    } else if (key == "scalars") {
      std::map<std::string, std::string> ignored;
      p.parse_flat_object(ignored, doc.scalars);
    } else if (key == "rows") {
      p.expect('[');
      if (p.peek() == ']') {
        ++p.at;
      } else {
        while (true) {
          std::map<std::string, std::string> strings;
          Row row;
          p.parse_flat_object(strings, row.metrics);
          row.label = strings.count("label") ? strings["label"] : "?";
          doc.rows.push_back(std::move(row));
          if (p.peek() == ',') {
            ++p.at;
            continue;
          }
          p.expect(']');
          break;
        }
      }
    } else {
      p.fail("unknown top-level key '" + key + "'");
    }
    if (p.peek() == ',') {
      ++p.at;
      continue;
    }
    p.expect('}');
    break;
  }
  return doc;
}

// --- comparison ----------------------------------------------------------

std::string host_class(const BenchDoc& doc) {
  if (!doc.has_host) return "(none recorded)";
  std::ostringstream out;
  for (const auto& [key, value] : doc.host_numbers) out << key << '=' << value << ' ';
  for (const auto& [key, value] : doc.host_strings) out << key << '=' << value << ' ';
  return out.str();
}

enum class Direction { kLowerBetter, kHigherBetter, kInformational };

Direction direction_of(const std::string& key) {
  const auto ends_with = [&](const std::string& suffix) {
    return key.size() >= suffix.size() &&
           key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends_with("_ms") || ends_with("_seconds")) return Direction::kLowerBetter;
  // Checked before the generic "ratio" rule: an overhead ratio (current
  // cost over baseline cost, bench_obs_overhead's trace_overhead_ratio)
  // regresses *upward*, the opposite of a speedup ratio.
  if (key.find("overhead") != std::string::npos) return Direction::kLowerBetter;
  if (key.find("speedup") != std::string::npos || key.find("ratio") != std::string::npos) {
    return Direction::kHigherBetter;
  }
  return Direction::kInformational;
}

struct Gate {
  double tolerance = 0.25;
  std::string keys;  // restrict to metric names containing this substring
  int regressions = 0;

  void compare(const std::string& where, const std::string& key, double base, double cur) {
    if (!keys.empty() && key.find(keys) == std::string::npos) return;
    const Direction dir = direction_of(key);
    if (dir == Direction::kInformational) return;
    bool regressed = false;
    if (dir == Direction::kLowerBetter) {
      regressed = cur > base * (1.0 + tolerance);
    } else if (base > 0.0) {
      regressed = cur < base / (1.0 + tolerance);
    }
    const char* verdict = regressed ? "REGRESSED" : "ok";
    std::cout << "  " << where << "." << key << ": " << base << " -> " << cur << "  ["
              << verdict << "]\n";
    if (regressed) ++regressions;
  }

  void missing(const std::string& what) {
    std::cerr << "  " << what << ": missing from the current run  [REGRESSED]\n";
    ++regressions;
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  Gate gate;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tolerance" && i + 1 < argc) {
      gate.tolerance = std::strtod(argv[++i], nullptr);
    } else if (arg == "--keys" && i + 1 < argc) {
      gate.keys = argv[++i];
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    std::cerr << "usage: bench_diff <baseline.json> <current.json>"
                 " [--tolerance 0.25] [--keys substr]\n";
    return 2;
  }

  const BenchDoc baseline = load(files[0]);
  const BenchDoc current = load(files[1]);
  std::cout << "bench_diff: " << baseline.bench << " baseline=" << files[0]
            << " current=" << files[1] << " tolerance=" << gate.tolerance
            << (gate.keys.empty() ? "" : " keys~" + gate.keys) << "\n";
  if (!baseline.has_host || !current.has_host ||
      baseline.host_strings != current.host_strings ||
      baseline.host_numbers != current.host_numbers) {
    std::cerr << "bench_diff: host classes differ; nothing compared\n"
              << "  baseline: " << host_class(baseline) << "\n"
              << "  current:  " << host_class(current) << "\n"
              << "  re-record the baseline on the current host class\n";
    return 3;
  }

  for (const auto& [key, base] : baseline.scalars) {
    const auto it = current.scalars.find(key);
    if (it == current.scalars.end()) {
      if (direction_of(key) != Direction::kInformational &&
          (gate.keys.empty() || key.find(gate.keys) != std::string::npos)) {
        gate.missing("scalars." + key);
      }
      continue;
    }
    gate.compare("scalars", key, base, it->second);
  }
  for (const Row& base_row : baseline.rows) {
    const Row* cur_row = current.row(base_row.label);
    if (cur_row == nullptr) {
      gate.missing("row '" + base_row.label + "'");
      continue;
    }
    for (const auto& [key, base] : base_row.metrics) {
      const auto it = cur_row->metrics.find(key);
      if (it == cur_row->metrics.end()) {
        if (direction_of(key) != Direction::kInformational &&
            (gate.keys.empty() || key.find(gate.keys) != std::string::npos)) {
          gate.missing(base_row.label + "." + key);
        }
        continue;
      }
      gate.compare(base_row.label, key, base, it->second);
    }
  }

  if (gate.regressions > 0) {
    std::cerr << "bench_diff: " << gate.regressions << " regression(s) beyond "
              << gate.tolerance * 100.0 << "%\n";
    return 1;
  }
  std::cout << "bench_diff: no regressions\n";
  return 0;
}
