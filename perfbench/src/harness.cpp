#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (!(q > 0.0 && q < 1.0)) throw std::invalid_argument("percentile: q must lie in (0, 1)");
  const std::size_t n = samples.size();
  // Nearest rank: the smallest sample with at least q*n samples at or below it.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (n == 0 || n - rank < kMinSamplesBeyond) {
    throw std::invalid_argument("percentile: p" + std::to_string(q * 100.0) + " of " +
                                std::to_string(n) + " samples has fewer than " +
                                std::to_string(kMinSamplesBeyond) + " samples beyond it");
  }
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::vector<double> self_times(const std::vector<SpanRec>& spans) {
  std::vector<std::vector<std::pair<double, double>>> covered(spans.size());
  for (const SpanRec& s : spans) {
    if (s.parent == SpanRec::kNoParent) continue;
    const SpanRec& p = spans.at(s.parent);
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) covered[s.parent].emplace_back(lo, hi);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    double union_len = 0.0;
    double cur_lo = 0.0;
    double cur_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) union_len += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) union_len += cur_hi - cur_lo;
    out[i] = (spans[i].end - spans[i].start) - union_len;
  }
  return out;
}

std::string_view json_field(std::string_view line, std::string_view key) {
  std::string pattern = "\"";
  pattern += key;
  pattern += "\":";
  // Keys of the flat response objects are never escaped, and a string value
  // containing `"key":` would carry its quotes escaped, so the first match
  // at nesting depth 1 is the field. Track depth and string state to skip
  // embedded documents (a stats response nests its own objects).
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    } else if (c == '"') {
      if (depth == 1 && line.compare(i, pattern.size(), pattern) == 0) {
        std::size_t v = i + pattern.size();
        if (v < line.size() && line[v] == '"') {
          const std::size_t begin = v + 1;
          std::size_t end = begin;
          while (end < line.size() && line[end] != '"') end += line[end] == '\\' ? 2 : 1;
          return line.substr(begin, std::min(end, line.size()) - begin);
        }
        const std::size_t end = line.find_first_of(",}", v);
        return line.substr(v, (end == std::string_view::npos ? line.size() : end) - v);
      }
      in_string = true;
    }
  }
  return {};
}

std::string response_mismatch(std::string_view service_line, std::string_view pipeline_line) {
  if (service_line == pipeline_line) return {};
  const auto at = std::mismatch(service_line.begin(), service_line.end(),
                                pipeline_line.begin(), pipeline_line.end())
                      .first;
  const auto offset = static_cast<std::size_t>(at - service_line.begin());
  const std::size_t from = offset < 40 ? 0 : offset - 40;
  std::string out = "response mismatch at byte " + std::to_string(offset) + ": service '";
  out += service_line.substr(from, 80);
  out += "' vs pipeline '";
  out += pipeline_line.substr(from, 80);
  out += "'";
  return out;
}

void Digest::add(std::string_view line) {
  for (const char c : line) h_ = (h_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  h_ = (h_ ^ static_cast<unsigned char>('\n')) * 0x100000001b3ULL;
}

void fresh_dir(const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

}  // namespace perfbench
