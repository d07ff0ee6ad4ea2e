// Measurement plumbing shared by the benchmark's passes: percentile
// selection, span self time, response-field extraction and the response
// cross-check, response digests, and run-directory hygiene. Kept apart from
// main.cpp so tests/harness_test.cpp can pin each rule down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A percentile may only be reported when at least this many samples lie
/// beyond it; with fewer, one outlier decides the value.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank q-quantile (0 < q < 1). Throws std::invalid_argument when
/// fewer than kMinSamplesBeyond samples lie beyond the selected rank.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Median (mean of the two middle samples for an even count); 0 for none.
[[nodiscard]] double median(std::vector<double> samples);

/// One recorded span. `parent` indexes the enclosing span in the same
/// vector (kNoParent for a root); `request` is the trace line it served.
struct SpanRec {
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
  std::uint32_t name = 0;
  std::uint32_t parent = kNoParent;
  std::uint32_t request = 0;
  double start = 0.0;  ///< seconds
  double end = 0.0;
};

/// Each span's duration minus the part of its interval that its direct
/// children cover (overlapping children are counted once; a child's time
/// outside its parent's interval is not subtracted).
[[nodiscard]] std::vector<double> self_times(const std::vector<SpanRec>& spans);

/// Raw text of a top-level field of a flat JSON response line: the
/// characters of a number/bool, or the undecoded contents of a string.
/// Empty when the key is absent.
[[nodiscard]] std::string_view json_field(std::string_view line, std::string_view key);

/// Compares a service response with the one the layered pipeline produced
/// for the same request, byte for byte. Returns an empty string when they
/// are identical, else a one-line description of the first difference.
[[nodiscard]] std::string response_mismatch(std::string_view service_line,
                                            std::string_view pipeline_line);

/// FNV-1a 64 over a response stream, line by line.
class Digest {
 public:
  void add(std::string_view line);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Removes whatever `dir` holds (a spill tier or checkpoint left by an
/// earlier or crashed run) and recreates it empty.
void fresh_dir(const std::filesystem::path& dir);

}  // namespace perfbench
