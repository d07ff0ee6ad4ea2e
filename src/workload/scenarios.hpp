// Scenario library: the paper's two motivating applications, instantiated
// as concrete profiled workloads (the substitution for the non-public
// MobiHealth traces).
//
// Magnitudes are chosen to be period-accurate for 2007-era kit: a PDA-class
// host (~200 Mops/s), microcontroller sensor boxes (~40 Mops/s), Bluetooth
// 1.2-class uplinks (~90 KB/s, ~30 ms latency). What matters for the
// experiments is the *regime* they induce -- satellite compute is ~5x more
// expensive per op, shipping raw signals is expensive, shipping extracted
// features is cheap -- which is exactly the trade-off the paper's
// introduction describes.
#pragma once

#include "platform/host_satellite_system.hpp"
#include "platform/profiled_tree.hpp"
#include "tree/cru_tree.hpp"

namespace treesat {

struct Scenario {
  std::string name;
  ProfiledTree workload;
  HostSatelliteSystem platform;
};

/// The epilepsy tele-monitoring application of paper Fig 1/§1: two sensor
/// boxes (ECG; 3-axis accelerometry), a PDA host. The reasoning tree
/// filters and extracts features per signal on the boxes, fuses activity
/// context, and estimates seizure probability at the root.
[[nodiscard]] Scenario epilepsy_scenario();

/// An SNMP-style network monitoring case (named in §3 as the other
/// observation the model generalizes): K probe boxes each aggregate
/// per-device counters; the root correlates alarms.
[[nodiscard]] Scenario snmp_scenario(std::size_t probes = 4);

/// The scenario library as one batch: epilepsy plus the SNMP cases at 4 and
/// 8 probes -- the instances every method-comparison harness iterates, and
/// the natural input for the facade's solve_batch seam.
[[nodiscard]] std::vector<Scenario> standard_scenarios();

/// The 13-CRU running example of paper Figs 2/5-8: four satellites
/// R(ed), Y(ellow), B(lue), G(reen); CRU5 and CRU13 share satellite B from
/// different branches, and CRU1/CRU2/CRU3 are the conflict nodes. Costs are
/// symbolic (small integers) since the paper keeps them symbolic too; the
/// structure is what the figures fix.
[[nodiscard]] CruTree paper_running_example();

/// Named accessors into paper_running_example() for tests:
/// the conflict set {CRU1, CRU2, CRU3}.
[[nodiscard]] std::vector<std::string> paper_example_conflicts();

}  // namespace treesat
