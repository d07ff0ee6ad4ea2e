// The benchmark's three seeded workloads (README.md says why each exists).
//
// A workload is a request trace in the service's line protocol plus the
// service configuration it runs under. Traces are pure functions of
// (workload, seed) and are generated by a separate process ahead of the
// measured one: generation costs tenants x ticks drift steps, and doing it
// inside the measured process left its allocator state and caches in a
// different shape on every seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/service.hpp"

namespace perfbench {

/// Workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

struct GeneratedTrace {
  std::vector<std::string> lines;
  /// Length of the warm-up prefix: one submit and one first solve per
  /// tenant. The timed phase replays the lines after it.
  std::size_t setup_lines = 0;
  /// The service's memory budget in bytes; 0 = unlimited.
  std::size_t mem_budget = 0;
};

/// Generates `workload`'s trace for `seed`. Throws std::invalid_argument on
/// an unknown workload name.
[[nodiscard]] GeneratedTrace generate_trace(const std::string& workload, std::uint64_t seed);

/// The service configuration a trace is measured under: treesat_serve's
/// defaults (default pareto-dp plan, dp_threads=1, one shard, no deadline)
/// plus the trace's memory budget and, when it has one, a spill tier in
/// `spill_dir`.
[[nodiscard]] treesat::ServiceOptions service_options(std::size_t mem_budget,
                                                      const std::string& spill_dir);

/// True when the timed replays start from a checkpoint of the warm-up
/// prefix (restore_from) instead of replaying the prefix itself.
[[nodiscard]] bool starts_from_checkpoint(const std::string& workload);

/// How many times each timed replay sets up a fresh service; setup_s is the
/// median over every set-up of a run. A set-up of tens of milliseconds is
/// repeated so that one stalled file write or a slow stretch of the host
/// does not decide it.
[[nodiscard]] std::size_t setups_per_replay(const std::string& workload);

}  // namespace perfbench
