// The Pareto DP's fold engine (core/pareto_dp.hpp explains the DP): the
// Minkowski merge kernel, the structure-of-arrays frontier arena with
// backpointer provenance, and the per-colour pipeline that builds region
// frontiers, folds them and reconstructs cuts. It is the one engine that
// builds, merges and sweeps frontiers: both callers run every colour
// through one pipeline -- the cold solve (pareto_dp_solve) a fresh one,
// the warm session (core/incremental.hpp) a retained one that it imports
// its cached frontiers into. Internal: the public API is pareto_dp.hpp; this header
// is exposed for those two callers, the kernel property suites and the
// bench.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/colouring.hpp"
#include "core/pareto_dp.hpp"
#include "platform/simd.hpp"

namespace treesat::pareto_internal {

inline constexpr std::uint32_t kNoParent = 0xffffffffu;
/// `left` marker of an imported point (see ColourPipeline::import).
inline constexpr std::uint32_t kImported = 0xfffffffeu;

struct MergeCounters {
  std::size_t merges = 0;
  std::size_t generated = 0;
  std::size_t kept = 0;
};

namespace detail {

/// merge_product's body, with its heap over a's points (kStreamB false) or
/// over b's (kStreamB true). Entries carry the caller's (i, j) and sums are
/// written a + b in either orientation, so nothing it emits or counts
/// depends on kStreamB.
template <bool kStreamB, typename Keep>
void merge_streams(const double* aload, const double* ahost, std::size_t na,
                   const double* bload, const double* bhost, std::size_t nb,
                   std::size_t max_frontier, MergeCounters& counters, Keep& keep) {
  // s: the streamed operand, one heap stream per point; w: the walked one.
  const double* const sload = kStreamB ? bload : aload;
  const double* const shost = kStreamB ? bhost : ahost;
  const std::size_t ns = kStreamB ? nb : na;
  const double* const wload = kStreamB ? aload : bload;
  const double* const whost = kStreamB ? ahost : bhost;
  const std::size_t nw = kStreamB ? na : nb;
  struct Entry {
    double load;
    double host;
    std::uint32_t i;  ///< index into a
    std::uint32_t j;  ///< index into b
  };
  const auto earlier = [](const Entry& x, const Entry& y) {
    if (x.load != y.load) return x.load < y.load;
    if (x.host != y.host) return x.host < y.host;
    if (x.i != y.i) return x.i < y.i;
    return x.j < y.j;
  };
  // Point w of stream s.
  const auto point = [&](std::uint32_t s, std::uint32_t w) {
    const std::uint32_t i = kStreamB ? w : s;
    const std::uint32_t j = kStreamB ? s : w;
    return Entry{aload[i] + bload[j], ahost[i] + bhost[j], i, j};
  };
  // Min-heap on `earlier`, root at index 0, maintained by hand so the
  // common advance is a replace-top. It holds at most one entry per
  // stream, and the usual one to three streams fit on the stack.
  constexpr std::size_t kInlineStreams = 8;
  Entry inline_heap[kInlineStreams]{};
  std::vector<Entry> spilled(ns > kInlineStreams ? ns : 0);
  Entry* const heap = ns > kInlineStreams ? spilled.data() : inline_heap;
  std::size_t count = 0;
  const auto sift_down = [&](std::size_t at) {
    const Entry e = heap[at];
    while (true) {
      std::size_t kid = 2 * at + 1;
      if (kid >= count) break;
      if (kid + 1 < count && earlier(heap[kid + 1], heap[kid])) ++kid;
      if (!earlier(heap[kid], e)) break;
      heap[at] = heap[kid];
      at = kid;
    }
    heap[at] = e;
  };
  const auto push_entry = [&](const Entry& e) {
    std::size_t at = count++;
    while (at > 0) {
      const std::size_t parent = (at - 1) / 2;
      if (!earlier(e, heap[parent])) break;
      heap[at] = heap[parent];
      at = parent;
    }
    heap[at] = e;
  };
  std::uint32_t next_stream = 0;
  const auto activate = [&] {
    push_entry(point(next_stream, 0));
    ++next_stream;
  };

  activate();
  double best_host = std::numeric_limits<double>::infinity();  // last kept point's
  // The popped load's (host, i, j)-least point below best_host, held back
  // until a larger load pops.
  Entry group{};
  bool held = false;
  std::size_t kept = 0;
  const auto emit_group = [&] {
    best_host = group.host;
    if (++kept > max_frontier) {
      throw ResourceLimit("pareto_dp: frontier exceeds max_frontier (" +
                          std::to_string(kept) + " points)");
    }
    ++counters.kept;
    keep(group.i, group.j, group.load, group.host);
    held = false;
  };
  while (true) {
    if (count == 0) {
      if (next_stream >= ns) break;
      activate();  // every stream still pops at least its seed
    }
    while (next_stream < ns && sload[next_stream] + wload[0] <= heap[0].load) activate();
    const Entry e = heap[0];
    ++counters.generated;
    if (held && e.load != group.load) emit_group();
    if (e.host < best_host && (!held || earlier(e, group))) {
      group = e;
      held = true;
    }
    const std::uint32_t s = kStreamB ? e.j : e.i;
    std::uint32_t w = (kStreamB ? e.i : e.j) + 1;
    if (w < nw) {
      const std::size_t skip =
          simd::dominated_prefix(whost + w, nw - w, shost[s], best_host);
      counters.generated += skip;  // skipped: dominated forever, never materialized
      w += static_cast<std::uint32_t>(skip);
    }
    if (w < nw) {
      heap[0] = point(s, w);
      sift_down(0);
    } else {
      heap[0] = heap[--count];
      if (count != 0) sift_down(0);
    }
  }
  if (held) emit_group();
}

}  // namespace detail

/// The Minkowski product of two pruned frontiers (loads ascending, hosts
/// strictly descending), dominance-pruned on the fly: a k-way merge whose
/// heap holds one stream per point of the *shorter* operand (a on a tie),
/// each stream walking the longer one -- load-ascending, because that
/// operand is sorted. Both folds put the growing accumulator on the left
/// (ColourPipeline::region's child merges, fold's region chain), so a
/// hundred-point accumulator ⊕ a two-point child runs two streams, not a
/// hundred. Emits the kept points through `keep(i, j, load, host)` in load
/// order. i indexes a and j indexes b, and every sum is written a + b,
/// whichever side streams, so the pipeline's provenance (left = a, right =
/// b) is the same either way. So is everything else it emits or counts:
///
///   * Ties break on (load, host, i, j), in the caller's indices.
///   * One point per distinct load: that load's (host, i, j)-least point,
///     kept only when its host is below every point kept before it -- the
///     reference prune's rule. The kernel holds each load's best point back
///     until a larger load pops. A stream's loads only fail to increase
///     strictly when rounding maps two walked points onto one sum, and
///     then the stream pops them host-descending: 3 + 1 == 3 +
///     nextafter(1, 2), so the stream of {(3, 3)} over {(1, 10), (1 + ulp,
///     5), (2, 1)} pops (4, 13) before (4, 8). Keeping points as they
///     popped kept the dominated (4, 13), and whether an input hit that
///     depended on which side streamed.
///   * counters.generated counts every product point once, popped or
///     skipped, so a merge adds exactly na·nb; counters.kept counts the
///     points emitted.
///
/// Three mechanical choices keep it fast, none visible in its output:
///
///   * SIMD skip-ahead: best_host only ever decreases, so a candidate whose
///     host is already >= best_host is dominated forever, and because a
///     stream's hosts descend, whole stream prefixes are skipped at advance
///     time: one simd::dominated_prefix call over the walked operand's
///     contiguous host block (the same floating-point sum, counted in bulk).
///   * Lazy stream activation: stream seeds (streamed point + walked point
///     0) are load-ascending, so seed s cannot pop before the head's load
///     reaches it; streams enter the heap only once the head's load catches
///     up to their seed (ties included, hence <=). At any pop every
///     unactivated seed has strictly larger load than the head, so the
///     head is the true global minimum.
///   * Replace-top on a stack heap: popping an entry and pushing its
///     successor is one write to the root plus a single sift-down, and the
///     heap, one entry per stream, allocates only past eight streams.
///
/// Requires both operands load-ascending: every frontier producer in the
/// engine emits load-ascending frontiers, and cached frontiers are
/// validated where they enter from outside (ResolveSession::import_state).
/// Throws ResourceLimit once more than max_frontier points are emitted.
template <typename Keep>
void merge_product(const double* aload, const double* ahost, std::size_t na,
                   const double* bload, const double* bhost, std::size_t nb,
                   std::size_t max_frontier, MergeCounters& counters, Keep&& keep) {
  ++counters.merges;
  if (na == 0 || nb == 0) return;  // the empty product
  if (nb < na) {
    detail::merge_streams<true>(aload, ahost, na, bload, bhost, nb, max_frontier,
                                      counters, keep);
  } else {
    detail::merge_streams<false>(aload, ahost, na, bload, bhost, nb, max_frontier,
                                       counters, keep);
  }
}

/// Structure-of-arrays frontier storage plus per-point provenance. A point
/// is one of: a *cut* point (edge valid), a *merge* point (left/right
/// parents), an *imported* point (left == kImported, right = import slot;
/// see ColourPipeline::import), or the neutral point (left == kNoParent,
/// edge invalid). The cut set a point realizes is never stored -- it is the
/// left-to-right concatenation of its provenance leaves, reconstructed on
/// demand.
struct FrontierArena {
  std::vector<double> load;
  std::vector<double> host;
  std::vector<std::uint32_t> left;
  std::vector<std::uint32_t> right;
  std::vector<CruId> edge;

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(load.size());
  }

  [[nodiscard]] std::size_t bytes() const {
    return load.size() *
           (2 * sizeof(double) + 2 * sizeof(std::uint32_t) + sizeof(CruId));
  }

  std::uint32_t add(double l, double h, std::uint32_t lp, std::uint32_t rp, CruId e) {
    if (load.size() >= kImported) {  // indices must stay below both markers
      throw ResourceLimit("pareto_dp: arena point count overflow");
    }
    load.push_back(l);
    host.push_back(h);
    left.push_back(lp);
    right.push_back(rp);
    edge.push_back(e);
    return static_cast<std::uint32_t>(load.size() - 1);
  }

  /// Drops every point at index >= new_size. Only ever applied to the tail
  /// span under construction, whose points nothing references yet.
  void truncate(std::uint32_t new_size) {
    load.resize(new_size);
    host.resize(new_size);
    left.resize(new_size);
    right.resize(new_size);
    edge.resize(new_size);
  }
};

/// One frontier: a contiguous [begin, end) slice of an arena, sorted by
/// load ascending with host strictly descending.
struct Span {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  [[nodiscard]] std::uint32_t size() const { return end - begin; }
};

/// Colour pipeline state: an arena plus the reusable scratch the region
/// pass, the merge and reconstruction need. Regions are disjoint subtrees,
/// so the per-node span table is shared across every region the pipeline
/// builds without clearing.
struct ColourPipeline {
  FrontierArena arena;
  std::size_t max_region_frontier = 0;  ///< widest region frontier built
  std::size_t peak = 0;                 ///< widest frontier built anywhere
  MergeCounters counters;

  /// A region entry an imported frontier rebuilds its cuts from, with the
  /// node ids its region-local positions rebind to.
  struct ImportPart {
    const FrontierEntry* region;
    const CruId* nodes;  ///< region-local position -> node id
  };
  /// A cached frontier imported as leaf points (see import()).
  struct Import {
    /// R region indices per point (a colour entry's region_index); null for
    /// a region entry, whose point i is its own part's point i.
    const std::uint32_t* index;
    std::uint32_t first_part;  ///< parts[first_part, first_part + part_count)
    std::uint32_t part_count;  ///< R
    std::uint32_t begin;       ///< arena index of the entry's point 0
  };
  std::vector<Import> imports;
  std::vector<ImportPart> import_parts;

  std::vector<Span> spans;  // per tree node
  // Merge inputs are snapshotted out of the arena (output appends to the
  // same vectors, which may reallocate mid-merge).
  std::vector<double> scratch_load[2];
  std::vector<double> scratch_host[2];
  std::vector<CruId> order;
  std::vector<CruId> dfs;
  std::vector<std::uint32_t> stack;

  /// Forgets all solve state but keeps every allocation, so a retained
  /// pipeline re-solves without touching the allocator. spans is cleared,
  /// not resized: region() re-establishes the per-node table for whatever
  /// tree comes next.
  void reset() {
    arena.truncate(0);
    max_region_frontier = 0;
    peak = 0;
    counters = MergeCounters{};
    imports.clear();
    import_parts.clear();
    spans.clear();
  }

  /// Adds this pipeline's fold counters to `stats`: maxima for widths, sums
  /// for arena bytes and merge work.
  void add_stats(ParetoDpStats& stats) const {
    stats.max_region_frontier = std::max(stats.max_region_frontier, max_region_frontier);
    stats.peak_frontier = std::max(stats.peak_frontier, peak);
    stats.arena_bytes += arena.bytes();
    stats.minkowski_merges += counters.merges;
    stats.merge_points_generated += counters.generated;
    stats.merge_points_kept += counters.kept;
  }

  void note_frontier(std::uint32_t width, std::size_t max_frontier) {
    if (width > max_frontier) {
      throw ResourceLimit("pareto_dp: frontier exceeds max_frontier (" +
                          std::to_string(width) + " points)");
    }
    peak = std::max(peak, static_cast<std::size_t>(width));
  }

  Span merge(Span a, Span b, std::size_t max_frontier) {
    for (int side = 0; side < 2; ++side) {
      const Span s = side == 0 ? a : b;
      scratch_load[side].assign(arena.load.begin() + s.begin, arena.load.begin() + s.end);
      scratch_host[side].assign(arena.host.begin() + s.begin, arena.host.begin() + s.end);
    }
    const std::uint32_t out_begin = arena.size();
    merge_product(scratch_load[0].data(), scratch_host[0].data(), a.size(),
                  scratch_load[1].data(), scratch_host[1].data(), b.size(), max_frontier,
                  counters, [&](std::uint32_t i, std::uint32_t j, double l, double h) {
                    arena.add(l, h, a.begin + i, b.begin + j, CruId{});
                  });
    const Span out{out_begin, arena.size()};
    note_frontier(out.size(), max_frontier);
    return out;
  }

  /// Frontier of the region rooted at `root`: explicit iterative post-order
  /// traversal (children left to right), so chain regions of arbitrary
  /// depth never touch the call stack.
  Span region(const Colouring& colouring, CruId root, std::size_t max_frontier) {
    const CruTree& tree = colouring.tree();
    if (spans.empty()) spans.resize(tree.size());

    // Postorder of the region subtree: reverse of a right-to-left preorder.
    order.clear();
    dfs.assign(1, root);
    while (!dfs.empty()) {
      const CruId v = dfs.back();
      dfs.pop_back();
      order.push_back(v);
      for (const CruId c : tree.node(v).children) dfs.push_back(c);
    }
    std::reverse(order.begin(), order.end());

    for (const CruId v : order) {
      const CruNode& nd = tree.node(v);
      const double cut_load = tree.subtree_sat_time(v) + nd.comm_up;
      if (nd.is_sensor()) {
        const std::uint32_t at = arena.add(cut_load, 0.0, kNoParent, kNoParent, v);
        spans[v.index()] = Span{at, at + 1};
        note_frontier(1, max_frontier);
        continue;
      }
      // Children combine with ⊕ (first child taken as-is: ⊕ with the
      // neutral frontier is the identity, bit for bit).
      Span acc = spans[nd.children.front().index()];
      for (std::size_t k = 1; k < nd.children.size(); ++k) {
        acc = merge(acc, spans[nd.children[k].index()], max_frontier);
      }
      // v on the host: shift every combined host by h_v, in place.
      if (nd.host_time != 0.0) {
        for (std::uint32_t p = acc.begin; p < acc.end; ++p) arena.host[p] += nd.host_time;
      }
      // Insert the cut-at-v point (load = cut_load, host = 0). The combined
      // span is the arena tail and nothing references its points yet, so
      // pruning is a truncation: keep the strict-load prefix, drop the
      // dominated tail, append the cut point unless the prefix already
      // reaches host 0.
      TS_CHECK(acc.end == arena.size(), "pareto_dp: combined span must be the arena tail");
      const auto first_ge = static_cast<std::uint32_t>(
          std::lower_bound(arena.load.begin() + acc.begin, arena.load.begin() + acc.end,
                           cut_load) -
          arena.load.begin());
      Span out{acc.begin, first_ge};
      arena.truncate(first_ge);
      const bool dominated = out.size() > 0 && arena.host[out.end - 1] <= 0.0;
      if (!dominated) {
        arena.add(cut_load, 0.0, kNoParent, kNoParent, v);
        ++out.end;
      }
      note_frontier(out.size(), max_frontier);
      spans[v.index()] = out;
    }

    const Span result = spans[root.index()];
    max_region_frontier = std::max(max_region_frontier, static_cast<std::size_t>(result.size()));
    return result;
  }

  /// Imports a cached frontier as leaf points: the values are copied into
  /// the arena, the cuts stay in the cache. A colour entry names its R
  /// region entries in `parts`, in regions_of order; reconstruct() rebuilds
  /// a point's cut from them. Every entry and node table must outlive the
  /// pipeline's use of the span. Imports are not work, so no counter moves.
  Span import(const FrontierEntry& entry, std::span<const ImportPart> parts) {
    const auto slot = static_cast<std::uint32_t>(imports.size());
    const std::uint32_t begin = arena.size();
    imports.push_back({entry.region_index.empty() ? nullptr : entry.region_index.data(),
                       static_cast<std::uint32_t>(import_parts.size()),
                       static_cast<std::uint32_t>(parts.size()), begin});
    import_parts.insert(import_parts.end(), parts.begin(), parts.end());
    for (std::size_t i = 0; i < entry.size(); ++i) {
      arena.add(entry.load[i], entry.host[i], kImported, slot, CruId{});
    }
    return Span{begin, arena.size()};
  }

  /// Imports a region entry: its own cuts, rebound through `nodes`.
  Span import(const FrontierEntry& region, const CruId* nodes) {
    const ImportPart part{&region, nodes};
    return import(region, std::span<const ImportPart>(&part, 1));
  }

  /// The single neutral point (0, 0) -- the frontier of a colour without
  /// regions, and the identity of ⊕.
  Span neutral() {
    const std::uint32_t at = arena.add(0.0, 0.0, kNoParent, kNoParent, CruId{});
    return Span{at, at + 1};
  }

  /// A colour's merged frontier: the `count` frontiers `region_at(k)`
  /// supplies (built or imported), folded left to right in regions_of
  /// order. A colour without regions contributes the single neutral point.
  template <typename RegionAt>
  Span fold(std::size_t count, std::size_t max_frontier, RegionAt&& region_at) {
    if (count == 0) return neutral();
    Span acc = region_at(std::size_t{0});
    for (std::size_t k = 1; k < count; ++k) {
      const Span f = region_at(k);
      acc = merge(acc, f, max_frontier);
    }
    return acc;
  }

  /// The index each point of the folded `colour` span took in each of the
  /// region frontiers `parts` that fold() folded into it, R per point (a
  /// colour entry's region_index). Walks the fold's left chain, O(R) per
  /// point: the step-k merge took its right operand from parts[k] and its
  /// left one from the fold of parts[0..k).
  [[nodiscard]] std::vector<std::uint32_t> region_indices(Span colour,
                                                          std::span<const Span> parts) const {
    const std::size_t count = parts.size();
    std::vector<std::uint32_t> out(std::size_t{colour.size()} * count);
    for (std::uint32_t p = colour.begin; p < colour.end; ++p) {
      std::uint32_t* row = out.data() + std::size_t{p - colour.begin} * count;
      std::uint32_t q = p;
      for (std::size_t k = count - 1; k > 0; --k) {
        row[k] = arena.right[q] - parts[k].begin;
        q = arena.left[q];
      }
      row[0] = q - parts[0].begin;
    }
    return out;
  }

  /// Appends the cut set realized by point `idx`: depth-first over the
  /// provenance DAG, left parent before right parent, so the order is the
  /// left-to-right concatenation of the point's leaves.
  void reconstruct(std::uint32_t idx, std::vector<CruId>& out) {
    stack.assign(1, idx);
    while (!stack.empty()) {
      const std::uint32_t p = stack.back();
      stack.pop_back();
      if (arena.edge[p].valid()) {
        out.push_back(arena.edge[p]);
      } else if (arena.left[p] == kImported) {
        const Import& im = imports[arena.right[p]];
        const std::size_t i = p - im.begin;
        for (std::uint32_t k = 0; k < im.part_count; ++k) {
          const ImportPart& part = import_parts[im.first_part + k];
          const std::size_t j = im.index == nullptr ? i : im.index[i * im.part_count + k];
          const FrontierEntry& region = *part.region;
          for (std::uint32_t c = region.cut_offsets[j]; c < region.cut_offsets[j + 1]; ++c) {
            out.push_back(part.nodes[region.cut_positions[c]]);
          }
        }
      } else if (arena.left[p] != kNoParent) {
        stack.push_back(arena.right[p]);
        stack.push_back(arena.left[p]);
      }  // else: the neutral point
    }
  }
};

/// Completes a solve from the per-colour merged frontiers `pipe` folded
/// (`per_colour[c]` for satellite c): the pipeline's fold counters, the
/// bottleneck sweep, the merge-counter metrics, and the reconstruction of
/// the one point per colour the sweep picks.
[[nodiscard]] ParetoDpResult finish_solve(const Colouring& colouring,
                                          const ParetoDpOptions& options, ColourPipeline& pipe,
                                          const std::vector<Span>& per_colour);

}  // namespace treesat::pareto_internal
