// Discrete-event simulator of a host-satellites execution.
//
// This is the substitution for the paper's physical testbed (sensor boxes +
// PDA): it *executes* an assignment instead of evaluating the closed-form
// delay, so the analytic model of §3 can be validated against an
// independent mechanism, and relaxations the paper leaves open can be
// measured (experiment E6).
//
// Model. Each satellite has one CPU and one uplink; the host has one CPU.
// All three are single-servers with deterministic FIFO dispatch (ties broken
// by frame, then postorder position). A frame released at time f·interval
// makes every sensor's raw output available on its satellite; CRUs run where
// the assignment placed them; a cut node's output occupies its satellite's
// uplink for comm_up seconds (the paper's additive model: latency is part of
// the occupancy).
//
// Two semantic switches reproduce resp. relax the paper's assumptions:
//   * TransmitRule::kAfterAllCompute (paper): a satellite starts
//     transmitting only after finishing *all* its frame-f computation --
//     this makes T_c exactly Σs + Σcomm.
//     kOverlapped (extension): each fragment ships as soon as it finishes,
//     overlapping the remaining computation.
//   * HostStartRule::kBarrier (paper §3: "CRUs placed on the host cannot
//     start processing unless they receive the processed context from all
//     the precedent CRUs located on the satellites"): host work of frame f
//     starts only after every frame-f delivery.
//     kDataflow (extension): each host CRU starts when its own inputs are
//     ready.
//
// Under (kBarrier, kAfterAllCompute, frames = 1) the simulated end-to-end
// latency equals the analytic S + B exactly; the property suite asserts
// this to 1e-12 relative tolerance.
#pragma once

#include <vector>

#include "core/assignment.hpp"

namespace treesat {

enum class HostStartRule : std::uint8_t { kBarrier, kDataflow };
enum class TransmitRule : std::uint8_t { kAfterAllCompute, kOverlapped };

struct SimOptions {
  HostStartRule host_rule = HostStartRule::kBarrier;
  TransmitRule transmit_rule = TransmitRule::kAfterAllCompute;
  std::size_t frames = 1;        ///< frames to push through the pipeline
  double frame_interval = 0.0;   ///< release period; 0 = all released at t=0
};

struct FrameTrace {
  double release = 0.0;
  double completion = 0.0;  ///< root CRU finished

  [[nodiscard]] double latency() const { return completion - release; }
};

struct SimResult {
  std::vector<FrameTrace> frames;
  double makespan = 0.0;            ///< completion of the last frame
  double mean_latency = 0.0;
  double max_latency = 0.0;
  double host_busy = 0.0;           ///< total host CPU busy time
  std::vector<double> sat_busy;     ///< per-satellite CPU busy time
  std::vector<double> uplink_busy;  ///< per-satellite link busy time
  std::size_t events_processed = 0;

  /// Sustained frame rate over the simulated horizon (frames / makespan).
  [[nodiscard]] double throughput() const {
    return makespan > 0.0 ? static_cast<double>(frames.size()) / makespan : 0.0;
  }
};

/// Executes `assignment` on the simulated platform. The tree's h/s/comm_up
/// constants are the task durations (they already encode device speeds; use
/// ProfiledTree::lower to derive them from ops/bytes).
[[nodiscard]] SimResult simulate(const Assignment& assignment, const SimOptions& options = {});

}  // namespace treesat
