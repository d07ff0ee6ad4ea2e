// Property wall for the branch-free SIMD Minkowski kernel
// (core/pareto_kernel.hpp merge_product): it must reproduce the scalar
// oracle merge (tests/pareto_reference.hpp) bit for bit -- points, cuts,
// counters and throw behaviour -- on random blocked frontiers, on
// tie-heavy integer grids (equal product loads / equal hosts), on
// single-point frontiers, on one-ulp load collisions and on lopsided
// pairs in both argument orders. The kernel streams the shorter operand
// and the oracle always streams its left one, so these rows also check
// that the kernel's choice of side is invisible. A retained pipeline must
// give the same frontiers as a fresh one. The SIMD primitive itself
// (platform/simd.hpp dominated_prefix) is unit-tested against its scalar
// specification, non-monotone and NaN inputs included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "core/pareto_kernel.hpp"
#include "pareto_reference.hpp"
#include "platform/simd.hpp"
#include "workload/generator.hpp"

namespace treesat {
namespace {

using reference::merge_points;
using reference::ScalarKernel;
using reference::SimdKernel;

constexpr std::size_t kBig = std::size_t{1} << 20;

/// Reference pruning: sort by (load, host), keep strict host improvements.
std::vector<ParetoPoint> pruned(std::vector<ParetoPoint> points) {
  reference::prune(points, kBig);
  return points;
}

/// A random valid frontier of up to `max_points` points. `integral` draws
/// coordinates from a small integer grid, which makes product sums collide
/// constantly -- the tie cases (equal load, equal host) the merge breaks
/// by stream index.
std::vector<ParetoPoint> random_frontier(Rng& rng, std::size_t max_points, bool integral) {
  std::vector<ParetoPoint> points(1 + rng.index(max_points));
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (integral) {
      points[i].load = static_cast<double>(rng.index(12));
      points[i].host = static_cast<double>(rng.index(12));
    } else {
      points[i].load = rng.uniform_real(0.0, 100.0);
      points[i].host = rng.uniform_real(0.0, 100.0);
    }
    points[i].cut = {CruId{rng.index(1000)}};
  }
  return pruned(std::move(points));
}

void expect_bitwise_equal(const std::vector<ParetoPoint>& simd,
                          const std::vector<ParetoPoint>& scalar, int trial) {
  ASSERT_EQ(simd.size(), scalar.size()) << "trial " << trial;
  for (std::size_t i = 0; i < simd.size(); ++i) {
    EXPECT_EQ(simd[i].load, scalar[i].load) << "trial " << trial << " point " << i;
    EXPECT_EQ(simd[i].host, scalar[i].host) << "trial " << trial << " point " << i;
    EXPECT_EQ(simd[i].cut, scalar[i].cut) << "trial " << trial << " point " << i;
  }
}

/// Both kernels on one pair: identical points, cuts and counters, and
/// every product point counted exactly once, whichever side the kernel
/// streams.
void expect_kernels_agree(const std::vector<ParetoPoint>& a, const std::vector<ParetoPoint>& b,
                          int trial) {
  pareto_internal::MergeCounters simd_counters;
  pareto_internal::MergeCounters scalar_counters;
  const auto simd = merge_points(SimdKernel{}, a, b, kBig, simd_counters);
  const auto scalar = merge_points(ScalarKernel{}, a, b, kBig, scalar_counters);
  expect_bitwise_equal(simd, scalar, trial);
  EXPECT_EQ(simd_counters.merges, scalar_counters.merges) << "trial " << trial;
  EXPECT_EQ(simd_counters.generated, scalar_counters.generated) << "trial " << trial;
  EXPECT_EQ(simd_counters.kept, scalar_counters.kept) << "trial " << trial;
  EXPECT_EQ(simd_counters.generated, a.size() * b.size()) << "trial " << trial;
  EXPECT_EQ(simd_counters.kept, simd.size()) << "trial " << trial;
}

enum class Grid { kReal, kInteger, kUlp };

/// A frontier of exactly n points, loads strictly ascending and hosts
/// strictly descending. kInteger steps both by 1-3 on an integer grid, so
/// product loads and hosts tie across streams constantly; kUlp mixes unit
/// load steps with one-ulp ones, so adding a load of 2 or more rounds
/// neighbours onto one sum -- the collisions inside a stream.
std::vector<ParetoPoint> staircase(Rng& rng, std::size_t n, Grid grid) {
  std::vector<ParetoPoint> points(n);
  double load = grid == Grid::kReal ? rng.uniform_real(0.0, 5.0)
                                    : static_cast<double>(1 + rng.index(4));
  double host = 4.0 * static_cast<double>(n) + 1.0;
  for (ParetoPoint& p : points) {
    p = ParetoPoint{load, host, {CruId{rng.index(1000)}}};
    switch (grid) {
      case Grid::kReal:
        load += rng.uniform_real(0.01, 2.0);
        host -= rng.uniform_real(0.01, 3.0);
        break;
      case Grid::kInteger:
        load += static_cast<double>(1 + rng.index(3));
        host -= static_cast<double>(1 + rng.index(3));
        break;
      case Grid::kUlp:
        load = rng.index(2) == 0 ? std::nextafter(load, 1e300) : std::floor(load) + 1.0;
        host -= static_cast<double>(1 + rng.index(3));
        break;
    }
  }
  return points;
}

TEST(ParetoSimdKernel, MatchesScalarOnRandomBlockedFrontiers) {
  // Frontiers up to 160 points: the dominated prefixes the kernel skips
  // span many SIMD blocks plus a scalar tail, so every path of
  // dominated_prefix participates.
  Rng rng(0x51D0);
  for (int trial = 0; trial < 150; ++trial) {
    const std::vector<ParetoPoint> a = random_frontier(rng, 160, /*integral=*/false);
    const std::vector<ParetoPoint> b = random_frontier(rng, 160, /*integral=*/false);
    expect_kernels_agree(a, b, trial);
  }
}

TEST(ParetoSimdKernel, MatchesScalarAndReferenceOnTieHeavyIntegerGrids) {
  // Integer coordinates force equal-load and equal-host product points;
  // the comparator's (load, host, i, j) tie-break must come out the same
  // through the lazy-activation heap as through the eager one, and both
  // must equal the reference engine's sort.
  Rng rng(0x7135);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<ParetoPoint> a = random_frontier(rng, 10, /*integral=*/true);
    const std::vector<ParetoPoint> b = random_frontier(rng, 10, /*integral=*/true);
    expect_kernels_agree(a, b, trial);
    expect_bitwise_equal(merge_points(SimdKernel{}, a, b, kBig),
                         reference::minkowski(a, b, kBig), trial);
  }
}

TEST(ParetoSimdKernel, SinglePointFrontiers) {
  Rng rng(0x1117);
  const ParetoPoint lone{3.5, 7.25, {CruId{std::size_t{42}}}};
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<ParetoPoint> many = random_frontier(rng, 60, trial % 2 == 0);
    for (const auto& [a, b] : {std::pair{std::vector<ParetoPoint>{lone}, many},
                               std::pair{many, std::vector<ParetoPoint>{lone}},
                               std::pair{std::vector<ParetoPoint>{lone},
                                         std::vector<ParetoPoint>{lone}}}) {
      expect_kernels_agree(a, b, trial);
    }
  }
}

TEST(ParetoSimdKernel, UlpCollisionsKeepOnePointPerLoad) {
  // 3 + 1 and 3 + nextafter(1, 2) round to the same load 4, so the stream
  // that walks the three-point side pops (4, 13) before (4, 8). Only the
  // (4, 8) point may survive, whichever side carries the collision and
  // whichever side the kernel streams -- as in the reference's full
  // product and prune.
  const std::vector<ParetoPoint> lone{{3.0, 3.0, {CruId{std::size_t{0}}}}};
  const std::vector<ParetoPoint> close{{1.0, 10.0, {CruId{std::size_t{1}}}},
                                       {std::nextafter(1.0, 2.0), 5.0, {CruId{std::size_t{2}}}},
                                       {2.0, 1.0, {CruId{std::size_t{3}}}}};
  ASSERT_EQ(3.0 + close[0].load, 3.0 + close[1].load);
  int row = 0;
  for (const auto& [a, b] : {std::pair{lone, close}, std::pair{close, lone}}) {
    const std::vector<ParetoPoint> merged = merge_points(SimdKernel{}, a, b, kBig);
    expect_bitwise_equal(merged, reference::minkowski(a, b, kBig), row);
    expect_kernels_agree(a, b, row);
    ASSERT_EQ(merged.size(), 2u) << "row " << row;
    EXPECT_EQ(merged[0].load, 4.0);
    EXPECT_EQ(merged[0].host, 8.0);
    EXPECT_EQ(merged[1].load, 5.0);
    EXPECT_EQ(merged[1].host, 4.0);
    ++row;
  }
}

TEST(ParetoSimdKernel, LopsidedPairsMatchTheOracleInBothOrders) {
  // One to three points against 100-160. The kernel streams the short
  // side and the oracle its left operand: (short, long) runs both the
  // same way round, (long, short) runs them opposite ways round.
  Rng rng(0x10B5);
  for (int trial = 0; trial < 120; ++trial) {
    const Grid grid = trial % 3 == 0 ? Grid::kReal : trial % 3 == 1 ? Grid::kInteger : Grid::kUlp;
    const std::vector<ParetoPoint> short_side = staircase(rng, 1 + rng.index(3), grid);
    const std::vector<ParetoPoint> long_side = staircase(rng, 100 + rng.index(61), grid);
    expect_kernels_agree(short_side, long_side, trial);
    expect_kernels_agree(long_side, short_side, trial);
    // The (load, host) values are the reference's too; its unstable sort
    // may pick another (i, j) among exact ties, so cuts are not compared.
    for (const auto& [a, b] : {std::pair{short_side, long_side}, std::pair{long_side, short_side}}) {
      const auto merged = merge_points(SimdKernel{}, a, b, kBig);
      const auto expected = reference::minkowski(a, b, kBig);
      ASSERT_EQ(merged.size(), expected.size()) << "trial " << trial;
      for (std::size_t i = 0; i < merged.size(); ++i) {
        EXPECT_EQ(merged[i].load, expected[i].load) << "trial " << trial << " point " << i;
        EXPECT_EQ(merged[i].host, expected[i].host) << "trial " << trial << " point " << i;
      }
    }
  }
}

TEST(ParetoSimdKernel, MaxFrontierThrowsAtTheSamePoint) {
  // Both kernels keep points in the same order, so the ResourceLimit must
  // fire on the same input with the same cap.
  Rng rng(0xCAFE);
  const std::vector<ParetoPoint> a = random_frontier(rng, 80, false);
  const std::vector<ParetoPoint> b = random_frontier(rng, 80, false);
  const std::size_t kept = merge_points(ScalarKernel{}, a, b, kBig).size();
  ASSERT_GT(kept, 1u);
  EXPECT_THROW((void)merge_points(SimdKernel{}, a, b, kept - 1), ResourceLimit);
  EXPECT_THROW((void)merge_points(ScalarKernel{}, a, b, kept - 1), ResourceLimit);
  EXPECT_EQ(merge_points(SimdKernel{}, a, b, kept).size(), kept);
  EXPECT_EQ(merge_points(ScalarKernel{}, a, b, kept).size(), kept);
}

TEST(ParetoSimdKernel, DpFoldsAreByteIdenticalAcrossKernels) {
  // The frontiers a solve actually folds: every colour's region frontiers
  // of random instances, folded left to right through both kernels --
  // points, cuts and every merge counter agree at each step.
  Rng rng(0x60D0);
  for (int trial = 0; trial < 39; ++trial) {
    const CruTree tree = [&] {
      // The stress shapes last: their colour folds put a long accumulated
      // frontier against short region frontiers.
      if (trial >= 30) return reference::stress_shape(rng, trial % 3, 128 + rng.index(129));
      TreeGenOptions o;
      o.compute_nodes = 8 + rng.index(30);
      o.satellites = 2 + rng.index(5);
      o.policy = trial % 3 == 0 ? SensorPolicy::kRoundRobin
                 : trial % 3 == 1 ? SensorPolicy::kClustered
                                  : SensorPolicy::kScattered;
      return random_tree(rng, o);
    }();
    const Colouring colouring(tree);
    for (std::size_t c = 0; c < tree.satellite_count(); ++c) {
      const std::span<const CruId> regions = colouring.regions_of(SatelliteId{c});
      if (regions.empty()) continue;
      std::vector<ParetoPoint> acc = region_frontier(colouring, regions[0], kBig);
      for (std::size_t k = 1; k < regions.size(); ++k) {
        const std::vector<ParetoPoint> next = region_frontier(colouring, regions[k], kBig);
        expect_kernels_agree(acc, next, trial);
        acc = merge_points(SimdKernel{}, acc, next, kBig);
      }
    }
  }
}

TEST(ParetoSimdKernel, RetainedPipelineIsResultInvisible) {
  // Warm sessions fold in one retained pipeline per thread, reset between
  // solves: whatever an earlier solve left in its arena, imports and
  // scratch, a reset pipeline must build the same frontiers, bit for bit,
  // as a fresh one.
  Rng rng(0x5C2A);
  TreeGenOptions o;
  o.compute_nodes = 24;
  o.satellites = 3;
  o.policy = SensorPolicy::kClustered;
  const CruTree tree = random_tree(rng, o);
  const Colouring colouring(tree);
  // A cached region entry (cuts in CSR form) and a colour entry folded
  // from it twice (per point: one index into each of its two regions).
  FrontierEntry region;
  region.cut_offsets.push_back(0);
  for (const ParetoPoint& p : random_frontier(rng, 30, false)) {
    region.load.push_back(p.load);
    region.host.push_back(p.host);
    for (const CruId v : p.cut) region.cut_positions.push_back(static_cast<std::uint32_t>(v.index()));
    region.cut_offsets.push_back(static_cast<std::uint32_t>(region.cut_positions.size()));
  }
  FrontierEntry colour;
  for (std::uint32_t i = 0; i < region.size(); ++i) {
    colour.load.push_back(region.load[i] + region.load[region.size() - 1 - i]);
    colour.host.push_back(0.0);
    colour.region_index.insert(colour.region_index.end(),
                               {i, static_cast<std::uint32_t>(region.size() - 1 - i)});
  }
  std::vector<CruId> nodes(1000);
  for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i] = CruId{i};
  const pareto_internal::ColourPipeline::ImportPart parts[] = {{&region, nodes.data()},
                                                               {&region, nodes.data()}};

  pareto_internal::ColourPipeline retained;
  for (int round = 0; round < 4; ++round) {
    retained.reset();
    if (round % 2 == 1) {
      static_cast<void>(retained.import(region, nodes.data()));
      // A colour import rebuilds each point's cut from its two region
      // points, in region order.
      const pareto_internal::Span span = retained.import(colour, parts);
      for (std::uint32_t i = 0; i < span.size(); ++i) {
        std::vector<CruId> cut;
        retained.reconstruct(span.begin + i, cut);
        std::vector<CruId> expected;
        for (const std::uint32_t j : {i, static_cast<std::uint32_t>(region.size() - 1 - i)}) {
          for (std::uint32_t c = region.cut_offsets[j]; c < region.cut_offsets[j + 1]; ++c) {
            expected.push_back(CruId{std::size_t{region.cut_positions[c]}});
          }
        }
        EXPECT_EQ(cut, expected) << "round " << round << " point " << i;
      }
    }
    for (const CruId r : colouring.region_roots()) {
      pareto_internal::ColourPipeline fresh;
      const pareto_internal::Span a = retained.region(colouring, r, kBig);
      const pareto_internal::Span b = fresh.region(colouring, r, kBig);
      ASSERT_EQ(a.size(), b.size()) << "round " << round;
      for (std::uint32_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(retained.arena.load[a.begin + k], fresh.arena.load[b.begin + k]);
        EXPECT_EQ(retained.arena.host[a.begin + k], fresh.arena.host[b.begin + k]);
        std::vector<CruId> cut_a, cut_b;
        retained.reconstruct(a.begin + k, cut_a);
        fresh.reconstruct(b.begin + k, cut_b);
        EXPECT_EQ(cut_a, cut_b) << "round " << round;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// platform/simd.hpp dominated_prefix: unit tests against the scalar spec.

std::size_t scalar_prefix(const std::vector<double>& host, double add, double cutoff) {
  std::size_t k = 0;
  while (k < host.size() && host[k] + add >= cutoff) ++k;
  return k;
}

TEST(DominatedPrefix, MatchesScalarSpecOnRandomDescendingBlocks) {
  Rng rng(0xD011);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<double> host(rng.index(40));
    for (double& h : host) h = rng.uniform_real(0.0, 50.0);
    std::sort(host.rbegin(), host.rend());  // strictly descending-ish (ties fine)
    const double add = rng.uniform_real(0.0, 50.0);
    const double cutoff = rng.uniform_real(0.0, 100.0);
    EXPECT_EQ(simd::dominated_prefix(host.data(), host.size(), add, cutoff),
              scalar_prefix(host, add, cutoff))
        << "trial " << trial;
  }
}

TEST(DominatedPrefix, FirstFailureSemanticsOnNonMonotoneInput) {
  // The merge only ever passes strictly descending hosts, but the
  // primitive's contract is first-failure on any input -- trailing-ones
  // counting, not block summation.
  const std::vector<double> host{9.0, 8.0, 2.0, 7.0, 9.0, 1.0, 9.0, 9.0, 9.0, 9.0};
  for (double cutoff = 0.5; cutoff < 10.0; cutoff += 1.0) {
    EXPECT_EQ(simd::dominated_prefix(host.data(), host.size(), 0.0, cutoff),
              scalar_prefix(host, 0.0, cutoff))
        << "cutoff " << cutoff;
  }
}

TEST(DominatedPrefix, NaNRejectsLikeTheScalarCompare) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> host(13, 5.0);
  host[6] = kNaN;  // lands mid-block on every lane width
  EXPECT_EQ(simd::dominated_prefix(host.data(), host.size(), 0.0, 1.0), 6u);
  EXPECT_EQ(scalar_prefix(host, 0.0, 1.0), 6u);
  // NaN cutoff / add reject everything, as `>=` does.
  EXPECT_EQ(simd::dominated_prefix(host.data(), host.size(), 0.0, kNaN), 0u);
  EXPECT_EQ(simd::dominated_prefix(host.data(), host.size(), kNaN, 1.0), 0u);
}

TEST(DominatedPrefix, EmptyAndBoundaryLengths) {
  const std::vector<double> host{5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.25, 0.125, 0.0625};
  EXPECT_EQ(simd::dominated_prefix(host.data(), 0, 0.0, 1.0), 0u);
  for (std::size_t n = 1; n <= host.size(); ++n) {
    EXPECT_EQ(simd::dominated_prefix(host.data(), n, 0.0, 1.0),
              scalar_prefix({host.begin(), host.begin() + static_cast<long>(n)}, 0.0, 1.0))
        << "n " << n;
  }
  EXPECT_STRNE(simd::active_isa(), "");  // the ISA tag is always populated
}

}  // namespace
}  // namespace treesat
