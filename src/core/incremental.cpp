#include "core/incremental.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <string_view>
#include <utility>

#include "common/hash.hpp"
#include "common/stopwatch.hpp"
#include "core/coloured_ssb.hpp"
#include "core/pareto_kernel.hpp"
#include "core/registry.hpp"
#include "obs/trace.hpp"
#include "heuristics/branch_bound.hpp"
#include "tree/serialize.hpp"

namespace treesat {

namespace {

/// Re-adds one source node on `builder` under `parent` (root when invalid):
/// the copy loop loss and insertion share, as they build a new topology.
CruId add_copy(CruTreeBuilder& builder, const CruNode& nd, CruId parent) {
  if (!parent.valid()) return builder.root(nd.name, nd.host_time);
  if (nd.is_sensor()) return builder.sensor(parent, nd.name, nd.satellite, nd.comm_up);
  return builder.compute(parent, nd.name, nd.host_time, nd.sat_time, nd.comm_up);
}

CruTree apply_drift(const CruTree& tree, const ProfileDrift& d) {
  if (d.satellite.valid()) {
    TS_REQUIRE(d.satellite.index() < tree.satellite_count(),
               "apply_perturbation: drift names satellite " << d.satellite << " but the tree has "
                                                            << tree.satellite_count());
  }
  // Per-satellite drift reaches exactly the nodes of the satellite's
  // propagated colour (its sensors and the monochromatic compute above
  // them); global drift reaches every node. A drift changes costs, never
  // shape, so the drifted tree keeps the topology and its colouring.
  const Colouring colouring(tree);
  return tree.rescaled(
      [&](CruId v) { return !d.satellite.valid() || colouring.colour(v) == d.satellite; },
      d.host_scale, d.sat_scale, d.comm_scale);
}

CruTree apply_loss(const CruTree& tree, const SatelliteLoss& loss) {
  TS_REQUIRE(loss.satellite.valid() && loss.satellite.index() < tree.satellite_count(),
             "apply_perturbation: loss names satellite " << loss.satellite
                                                         << " but the tree has "
                                                         << tree.satellite_count());
  // A node vanishes when it is a sensor of the lost satellite, or a compute
  // node whose every child vanished (postorder: children decided first).
  std::vector<bool> removed(tree.size(), false);
  for (const CruId v : tree.postorder()) {
    const CruNode& nd = tree.node(v);
    if (nd.is_sensor()) {
      removed[v.index()] = nd.satellite == loss.satellite;
      continue;
    }
    bool all_gone = true;
    for (const CruId c : nd.children) {
      if (!removed[c.index()]) {
        all_gone = false;
        break;
      }
    }
    removed[v.index()] = all_gone;
  }
  TS_REQUIRE(!removed[tree.root().index()],
             "apply_perturbation: losing satellite " << loss.satellite
                                                     << " removes the whole workload");

  CruTreeBuilder builder;
  builder.reserve(tree.size());
  std::vector<CruId> remap(tree.size());
  for (std::size_t i = 0; i < tree.size(); ++i) {
    if (removed[i]) continue;
    const CruNode& nd = tree.node(CruId{i});
    const CruId parent = nd.parent.valid() ? remap[nd.parent.index()] : CruId{};
    remap[i] = add_copy(builder, nd, parent);
  }
  return builder.build();
}

CruTree apply_insert(const CruTree& tree, const SubtreeInsert& ins) {
  TS_REQUIRE(ins.parent.valid() && ins.parent.index() < tree.size(),
             "apply_perturbation: insert parent " << ins.parent << " is not a node");
  TS_REQUIRE(!tree.node(ins.parent).is_sensor(),
             "apply_perturbation: cannot insert under sensor '" << tree.node(ins.parent).name
                                                                << "'");
  TS_REQUIRE(!ins.nodes.empty(), "apply_perturbation: empty insertion");
  // The inserted names, sorted: unique among themselves here, and against
  // every existing name as the tree is copied.
  std::vector<std::string_view> added;
  added.reserve(ins.nodes.size());
  for (std::size_t k = 0; k < ins.nodes.size(); ++k) {
    const SubtreeInsert::Node& nd = ins.nodes[k];
    TS_REQUIRE(serializable_name(nd.name),
               "apply_perturbation: inserted node " << k << " has an unserializable name '"
                                                    << nd.name << "'");
    TS_REQUIRE(nd.parent == SubtreeInsert::kAttach || nd.parent < k,
               "apply_perturbation: inserted node '" << nd.name
                                                     << "' references a later parent");
    added.push_back(nd.name);
  }
  std::sort(added.begin(), added.end());
  const auto twice = std::adjacent_find(added.begin(), added.end());
  TS_REQUIRE(twice == added.end(),
             "apply_perturbation: inserted name '" << *twice << "' already exists");

  CruTreeBuilder builder;
  builder.reserve(tree.size() + ins.nodes.size());
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const CruNode& nd = tree.node(CruId{i});
    TS_REQUIRE(!std::binary_search(added.begin(), added.end(), std::string_view(nd.name)),
               "apply_perturbation: inserted name '" << nd.name << "' already exists");
    add_copy(builder, nd, nd.parent);
  }
  const std::size_t base = tree.size();
  for (std::size_t k = 0; k < ins.nodes.size(); ++k) {
    const SubtreeInsert::Node& nd = ins.nodes[k];
    const CruId parent =
        nd.parent == SubtreeInsert::kAttach ? ins.parent : CruId{base + nd.parent};
    if (nd.kind == CruKind::kSensor) {
      builder.sensor(parent, nd.name, nd.satellite, nd.comm_up);
    } else {
      builder.compute(parent, nd.name, nd.host_time, nd.sat_time, nd.comm_up);
    }
  }
  return builder.build();
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

Perturbation Perturbation::drift(ProfileDrift drift) { return Perturbation(Change{drift}); }

Perturbation Perturbation::global_drift(double host_scale, double sat_scale,
                                        double comm_scale) {
  return drift(ProfileDrift{SatelliteId{}, host_scale, sat_scale, comm_scale});
}

Perturbation Perturbation::satellite_drift(SatelliteId satellite, double host_scale,
                                           double sat_scale, double comm_scale) {
  TS_REQUIRE(satellite.valid(), "satellite_drift: invalid satellite id");
  return drift(ProfileDrift{satellite, host_scale, sat_scale, comm_scale});
}

Perturbation Perturbation::satellite_loss(SatelliteId satellite) {
  TS_REQUIRE(satellite.valid(), "satellite_loss: invalid satellite id");
  return Perturbation(Change{SatelliteLoss{satellite}});
}

Perturbation Perturbation::insert_subtree(SubtreeInsert insert) {
  return Perturbation(Change{std::move(insert)});
}

Perturbation Perturbation::insert_probe(CruId parent, const std::string& name,
                                        SatelliteId satellite, double host_time,
                                        double sat_time, double comm_up,
                                        double sensor_comm_up) {
  SubtreeInsert ins;
  ins.parent = parent;
  ins.nodes.push_back({SubtreeInsert::kAttach, CruKind::kCompute, name, host_time, sat_time,
                       comm_up, SatelliteId{}});
  ins.nodes.push_back({0, CruKind::kSensor, name + "_sensor", 0.0, 0.0, sensor_comm_up,
                       satellite});
  return insert_subtree(std::move(ins));
}

const char* Perturbation::kind_name() const {
  if (std::holds_alternative<ProfileDrift>(change_)) return "drift";
  if (std::holds_alternative<SatelliteLoss>(change_)) return "loss";
  return "insert";
}

CruTree apply_perturbation(const CruTree& tree, const Perturbation& p) {
  return std::visit(
      [&](const auto& change) -> CruTree {
        using T = std::decay_t<decltype(change)>;
        if constexpr (std::is_same_v<T, ProfileDrift>) {
          return apply_drift(tree, change);
        } else if constexpr (std::is_same_v<T, SatelliteLoss>) {
          return apply_loss(tree, change);
        } else {
          return apply_insert(tree, change);
        }
      },
      p.change());
}

const char* resolve_path_name(ResolvePath path) {
  switch (path) {
    case ResolvePath::kInitial: return "initial";
    case ResolvePath::kWarm: return "warm";
    case ResolvePath::kCold: return "cold";
  }
  return "unknown";
}

ResolveSession::ResolveSession(CruTree tree, SolvePlan plan)
    : plan_(std::move(plan)),
      tree_(std::make_shared<const CruTree>(std::move(tree))),
      colouring_(std::make_unique<Colouring>(*tree_)) {
  solve_current(nullptr);
}

namespace {

/// The previous optimal cut, when it is still a valid cut of `colouring`
/// (drift keeps it valid; loss and insertion usually do not).
std::optional<std::vector<CruId>> surviving_cut(const Colouring& colouring,
                                                const SolveReport* previous) {
  if (previous == nullptr) return std::nullopt;
  const std::vector<CruId>& cut = previous->assignment.cut_nodes();
  for (const CruId v : cut) {
    if (!v.valid() || v.index() >= colouring.tree().size()) return std::nullopt;
  }
  try {
    const Assignment probe(colouring, cut);
    (void)probe;
  } catch (const InvalidArgument&) {
    return std::nullopt;
  }
  return cut;
}

}  // namespace

void ResolveSession::solve_current(const Perturbation* p, std::optional<SatelliteId> drifted) {
  const Stopwatch watch;
  // Attempts advance even when this solve later throws and resolve() rolls
  // back: stamps left by the aborted attempt must read as *older* than the
  // retry, or genuine cache hits would be misreported as fresh work.
  ++attempt_;
  ResolveStats fresh;
  fresh.step = p == nullptr ? 0 : stats_.step + 1;
  fresh.path = p == nullptr ? ResolvePath::kInitial : ResolvePath::kCold;
  fresh.regions_total = colouring_->region_roots().size();

  const SolvePlan resolved = plan_.resolve(*colouring_);
  std::unique_ptr<SolveReport> report;
  Memo memo;  // stays empty unless the fold engine runs
  switch (resolved.method()) {
    case SolveMethod::kParetoDp: {
      report = std::make_unique<SolveReport>(solve_warm_dp(resolved, fresh, drifted, memo));
      if (p != nullptr) {
        if (fresh.regions_reused > 0) {
          fresh.path = ResolvePath::kWarm;
        } else {
          fresh.cold_reason = "no cached region state survived the perturbation";
        }
      }
      break;
    }
    case SolveMethod::kColouredSsb:
    case SolveMethod::kBranchBound: {
      // The incumbent warm start reuses the previous optimum's cut *ids*,
      // which only denote the same nodes while ids are stable -- drift and
      // insertion preserve them, satellite loss compacts them, and a
      // compacted id set could name a valid but semantically unrelated cut.
      const bool ids_stable = p == nullptr || p->as<SatelliteLoss>() == nullptr;
      std::optional<std::vector<CruId>> cut;
      if (ids_stable) {
        cut = surviving_cut(*colouring_, report_.get());
      }
      SolvePlan warm = resolved;
      if (cut) {
        if (resolved.method() == SolveMethod::kColouredSsb) {
          ColouredSsbOptions o = resolved.options_as<ColouredSsbOptions>();
          o.warm_cut = std::move(*cut);
          warm = SolvePlan::coloured_ssb(std::move(o));
        } else {
          BranchBoundOptions o = resolved.options_as<BranchBoundOptions>();
          o.incumbent_cut = std::move(*cut);
          warm = SolvePlan::branch_bound(std::move(o));
        }
        fresh.incumbent_used = true;
        fresh.path = ResolvePath::kWarm;
      } else if (p != nullptr) {
        fresh.cold_reason = ids_stable
                                ? "previous optimum is no longer a valid cut"
                                : "satellite loss remapped node ids; previous optimum discarded";
      }
      report = std::make_unique<SolveReport>(solve(*colouring_, warm));
      break;
    }
    default: {
      if (p != nullptr) {
        fresh.cold_reason = std::string("method '") + method_name(resolved.method()) +
                            "' has no reusable search state";
      }
      report = std::make_unique<SolveReport>(solve(*colouring_, resolved));
      break;
    }
  }
  // The incumbent paths re-solve through rebuilt concrete plans, which
  // would report themselves as the requested method; the facade contract is
  // that `requested` names what the *session's* plan asked for (kAutomatic
  // when resolution chose).
  report->requested = plan_.method();

  // Keep only what this solve touched: the next solve can read nothing
  // else (an entry older than the latest instance is all but never hit
  // again), and every retained colour entry's region entries were touched
  // with it. A rolled-back attempt never reaches this sweep, so its
  // insertions wait for the next successful one.
  for (FrontierCache* cache : {&colour_cache_, &region_cache_}) {
    for (auto it = cache->begin(); it != cache->end();) {
      if (it->second.last_used < attempt_) {
        cached_bytes_ -= entry_bytes(*it);
        it = cache->erase(it);
      } else {
        ++it;
      }
    }
  }
  fresh.cache_entries = colour_cache_.size() + region_cache_.size();
  fresh.wall_seconds = watch.seconds();

  report_ = std::move(report);
  stats_ = std::move(fresh);
  memo_ = std::move(memo);
}

namespace {

/// Exact content encoding of one region subtree (`nodes`, its canonical
/// enumeration): region-relative structure plus the bit patterns of every
/// cost (the words are independent of where the region sits in its colour,
/// so identical regions encode identically everywhere). A key match
/// guarantees the frontier machinery would recompute bit-identical values --
/// reuse can never change the result.
void encode_region(const Colouring& colouring, std::span<const CruId> nodes,
                   std::vector<std::uint64_t>& words) {
  const CruTree& tree = colouring.tree();
  for (std::size_t pos = 0; pos < nodes.size(); ++pos) {
    const CruNode nd = tree.node(nodes[pos]);
    words.push_back(pos == 0 ? ~std::uint64_t{0} : colouring.region_position(nd.parent));
    words.push_back(nd.is_sensor() ? 1 : 0);
    words.push_back(bits(nd.host_time));
    words.push_back(bits(nd.sat_time));
    words.push_back(bits(nd.comm_up));
  }
}

/// The fold pipeline every warm session solve on this thread runs in. One
/// retained pipeline per thread rather than one per session: a session's
/// solve holds every colour's fold chain until its sweep, and retaining
/// that per session would multiply it by the resident session count.
pareto_internal::ColourPipeline& thread_pipeline() {
  thread_local pareto_internal::ColourPipeline pipeline;
  return pipeline;
}

}  // namespace

SolveReport ResolveSession::solve_warm_dp(const SolvePlan& resolved, ResolveStats& fresh,
                                          std::optional<SatelliteId> drifted, Memo& next) {
  const Stopwatch watch;
  const auto& options = resolved.options_as<ParetoDpOptions>();
  const Colouring& colouring = *colouring_;
  const std::size_t colours = tree_->satellite_count();

  pareto_internal::ColourPipeline& pipe = thread_pipeline();
  pipe.reset();
  next.colour.assign(colours, nullptr);
  next.region.assign(colouring.region_roots().size(), nullptr);
  std::vector<CruId> cut;
  std::vector<std::uint32_t> positions;
  std::vector<pareto_internal::Span> parts;
  std::vector<pareto_internal::ColourPipeline::ImportPart> import_parts;
  std::vector<ContentKey> region_keys;

  // A span's values, as a cache entry's exact-capacity arrays: cached_bytes()
  // accounts capacities, which an import must reproduce.
  const auto values = [&](pareto_internal::Span span) {
    FrontierEntry entry;
    entry.load.assign(pipe.arena.load.begin() + span.begin, pipe.arena.load.begin() + span.end);
    entry.host.assign(pipe.arena.host.begin() + span.begin, pipe.arena.host.begin() + span.end);
    return entry;
  };
  // A freshly built region's entry: its values plus every point's cut, as
  // positions in the region's canonical enumeration.
  const auto region_entry = [&](pareto_internal::Span span) {
    FrontierEntry entry = values(span);
    entry.cut_offsets.reserve(span.size() + 1);
    entry.cut_offsets.push_back(0);
    positions.clear();
    for (std::uint32_t p = span.begin; p < span.end; ++p) {
      cut.clear();
      pipe.reconstruct(p, cut);
      for (const CruId v : cut) positions.push_back(colouring.region_position(v));
      entry.cut_offsets.push_back(static_cast<std::uint32_t>(positions.size()));
    }
    entry.cut_positions.assign(positions.begin(), positions.end());
    return entry;
  };

  std::vector<pareto_internal::Span> merged(colours);
  std::size_t first_region = 0;  // colour c's first region in the colouring's region order
  for (std::size_t c = 0; c < colours; ++c) {
    const SatelliteId colour{c};
    const std::span<const CruId> regions = colouring.regions_of(colour);
    if (regions.empty()) {
      merged[c] = pipe.neutral();  // nothing to place, as cold
      continue;
    }
    ++fresh.colours_total;
    const std::size_t first = first_region;
    first_region += regions.size();
    // This colour's region entries, in the memo this solve leaves behind.
    const std::span<CachedFrontier*> entries(next.region.data() + first, regions.size());

    // One span per colour, warm path included: cache hits are part of the
    // solve's shape, so they show up in the trace too (with cached=1 and a
    // zero-merge body) instead of disappearing from the profile.
    obs::Span colour_span(obs::trace(), "dp.colour");
    colour_span.attr("colour", static_cast<std::uint64_t>(c));
    colour_span.attr("regions", static_cast<std::uint64_t>(regions.size()));

    CachedFrontier* colour_entry = nullptr;
    ContentKey colour_key;
    if (drifted.has_value() && colour != *drifted) {
      // The drift left this colour's content as it was at the last
      // successful solve, so its key would find the memo's entries: serve
      // them without enumerating, encoding, hashing or looking up.
      colour_entry = memo_.colour[c];
      std::copy_n(memo_.region.data() + first, regions.size(), entries.begin());
    } else {
      // The colour key is the regions' keys in sequence, every region
      // prefixed by its size so distinct region splits cannot encode
      // identically; the per-region keys double as the region-cache keys
      // (their words are offset-independent).
      region_keys.resize(regions.size());
      for (std::size_t k = 0; k < regions.size(); ++k) {
        const std::span<const CruId> nodes = colouring.region_nodes(colour, k);
        ContentKey& region_key = region_keys[k];
        region_key.words.clear();
        encode_region(colouring, nodes, region_key.words);
        region_key.hash = fnv1a_words(region_key.words);
        colour_key.words.push_back(nodes.size());
        colour_key.words.insert(colour_key.words.end(), region_key.words.begin(),
                                region_key.words.end());
      }
      colour_key.hash = fnv1a_words(colour_key.words);
      const auto colour_hit = colour_cache_.find(colour_key);
      if (colour_hit != colour_cache_.end()) {
        colour_entry = &colour_hit->second;
        for (std::size_t k = 0; k < regions.size(); ++k) {
          const auto region_hit = region_cache_.find(region_keys[k]);
          TS_CHECK(region_hit != region_cache_.end(),
                   "incremental: a cached colour's region entry is missing");
          entries[k] = &region_hit->second;
        }
      }
    }

    if (colour_entry != nullptr) {
      // The whole merged frontier is served from cache: no region frontier
      // and no Minkowski chain, just the cached points imported as leaves.
      // Their cuts are rebuilt from the colour's region entries, which every
      // retained colour entry keeps alive; touching them here is also what
      // keeps them for a later localized change (e.g. a probe insertion)
      // that falls back to them. Only an entry from an *earlier* step counts
      // as reuse; hitting an entry cached seconds ago in this same step (two
      // content-identical colours) is deduplicated fresh work, not state
      // that survived the perturbation.
      const bool survived = colour_entry->last_used < attempt_;
      colour_entry->last_used = attempt_;
      import_parts.clear();
      for (std::size_t k = 0; k < regions.size(); ++k) {
        entries[k]->last_used = attempt_;
        import_parts.push_back({&entries[k]->frontier, colouring.region_nodes(colour, k).data()});
      }
      merged[c] = pipe.import(colour_entry->frontier, import_parts);
      next.colour[c] = colour_entry;
      colour_span.attr("cached", std::uint64_t{1});
      colour_span.attr("frontier", static_cast<std::uint64_t>(merged[c].size()));
      if (survived) {
        fresh.regions_reused += regions.size();
        ++fresh.colours_reused;
      } else {
        fresh.regions_recomputed += regions.size();
      }
      continue;
    }

    // Colour miss: fold the colour's regions, importing single regions
    // from the region-level cache where their content survived (e.g. the
    // untouched siblings of an inserted probe's region) and building the
    // rest -- the cold solve's fold, so warm stays byte-identical to cold.
    parts.clear();
    const pareto_internal::Span span =
        pipe.fold(regions.size(), options.max_frontier, [&](std::size_t k) {
          const auto region_hit = region_cache_.find(region_keys[k]);
          if (region_hit != region_cache_.end()) {
            if (region_hit->second.last_used < attempt_) {
              ++fresh.regions_reused;
            } else {
              ++fresh.regions_recomputed;  // same-step duplicate: fresh work deduplicated
            }
            region_hit->second.last_used = attempt_;
            entries[k] = &region_hit->second;
            parts.push_back(pipe.import(region_hit->second.frontier,
                                        colouring.region_nodes(colour, k).data()));
          } else {
            parts.push_back(pipe.region(colouring, regions[k], options.max_frontier));
            entries[k] = insert(region_cache_, region_keys[k], region_entry(parts.back()));
            ++fresh.regions_recomputed;
          }
          return parts.back();
        });
    // The colour entry keeps no cut, only each point's index in each of its
    // regions' frontiers. Its key is an exact-capacity copy: colour_key.words
    // grew by push_back and carries slack, and cached_bytes() accounts
    // capacities, which must match bit for bit on an import (whose keys are
    // copies).
    FrontierEntry entry = values(span);
    entry.region_index = pipe.region_indices(span, parts);
    ContentKey stored_key;
    stored_key.words = colour_key.words;
    stored_key.hash = colour_key.hash;
    next.colour[c] = insert(colour_cache_, std::move(stored_key), std::move(entry));
    colour_span.attr("cached", std::uint64_t{0});
    colour_span.attr("frontier", static_cast<std::uint64_t>(span.size()));
    merged[c] = span;
  }

  ParetoDpResult r = pareto_internal::finish_solve(colouring, options, pipe, merged);
  return SolveReport{std::move(r.assignment), std::move(r.delay), r.objective,
                     watch.seconds(),         /*exact=*/true,     SolveMethod::kParetoDp,
                     plan_.method(),          r.stats};
}

ResolveSession::CachedFrontier* ResolveSession::insert(FrontierCache& cache, ContentKey key,
                                                       FrontierEntry frontier) {
  const auto [it, inserted] =
      cache.emplace(std::move(key), CachedFrontier{std::move(frontier), attempt_});
  if (!inserted) return nullptr;
  cached_bytes_ += entry_bytes(*it);
  return &it->second;
}

std::size_t ResolveSession::entry_bytes(const FrontierCache::value_type& entry) {
  // Capacity-true accounting. capacity() is deterministic here -- every
  // stored vector is an exact-capacity copy (entries and imported keys
  // alike; see solve_warm_dp's stored_key) -- and each entry additionally
  // charges its hash-node footprint: the pair itself plus the node's
  // chain/hash overhead (two pointers as a floor). Bucket arrays are
  // deliberately excluded: bucket_count() depends on insertion/erasure
  // history, which would make the gauge differ across export/import.
  const auto& [key, cached] = entry;
  const FrontierEntry& f = cached.frontier;
  return sizeof(FrontierCache::value_type) + 2 * sizeof(void*) +
         key.words.capacity() * sizeof(std::uint64_t) +
         (f.load.capacity() + f.host.capacity()) * sizeof(double) +
         (f.cut_offsets.capacity() + f.cut_positions.capacity() + f.region_index.capacity()) *
             sizeof(std::uint32_t);
}

namespace {

/// Node count encoded by a region-cache key: 5 words per node
/// (parent position, sensor flag, three cost bit patterns) -- see
/// encode_region. Rejects anything structurally impossible.
std::size_t region_key_nodes(const std::vector<std::uint64_t>& words) {
  TS_REQUIRE(!words.empty() && words.size() % 5 == 0,
             "import_state: region cache key of " << words.size()
                                                  << " words is not a whole node encoding");
  return words.size() / 5;
}

/// The region keys a colour-cache key concatenates: a sequence of
/// [region size][5 words per node...] blocks (see solve_warm_dp), each
/// block's node words being that region's own key.
std::vector<std::vector<std::uint64_t>> colour_key_regions(
    const std::vector<std::uint64_t>& words) {
  std::vector<std::vector<std::uint64_t>> regions;
  std::size_t i = 0;
  while (i < words.size()) {
    const std::uint64_t n = words[i];
    TS_REQUIRE(n >= 1 && n <= words.size(),
               "import_state: colour cache key declares a region of " << n << " nodes in "
                                                                      << words.size()
                                                                      << " words");
    const std::size_t end = i + 1 + 5 * static_cast<std::size_t>(n);
    TS_REQUIRE(end <= words.size(), "import_state: colour cache key truncated mid-region");
    regions.emplace_back(words.begin() + static_cast<std::ptrdiff_t>(i + 1),
                         words.begin() + static_cast<std::ptrdiff_t>(end));
    i = end;
  }
  TS_REQUIRE(!regions.empty(), "import_state: empty colour cache key");
  return regions;
}

/// The checks every cached frontier must pass before the fold engine's
/// merge reads it: non-empty, finite coordinates (a NaN load would corrupt
/// the merge order, a NaN host would defeat the dominance prune) and loads
/// in non-decreasing order (its lazy stream activation relies on it).
void require_values(const FrontierEntry& f) {
  TS_REQUIRE(f.size() > 0, "import_state: empty cached frontier");
  TS_REQUIRE(f.host.size() == f.size(),
             "import_state: cached frontier has " << f.size() << " loads but "
                                                  << f.host.size() << " hosts");
  for (std::size_t i = 0; i < f.size(); ++i) {
    TS_REQUIRE(std::isfinite(f.load[i]) && std::isfinite(f.host[i]),
               "import_state: non-finite coordinate in a cached frontier");
    TS_REQUIRE(i == 0 || f.load[i] >= f.load[i - 1],
               "import_state: cached frontier not sorted by load");
  }
}

}  // namespace

SessionState ResolveSession::export_state() const {
  SessionState out;
  out.plan_spec = plan_spec(plan_);
  out.tree = tree_;
  out.cut = report_->assignment.cut_nodes();
  out.objective_value = report_->objective_value;
  out.exact = report_->exact;
  out.method = report_->method;
  out.requested = report_->requested;
  if (const auto* dp = report_->stats_as<ParetoDpStats>()) {
    out.has_dp_stats = true;
    out.dp_stats = *dp;
  }
  out.stats = stats_;
  out.stats.wall_seconds = 0.0;  // observation, not state (see SessionState)
  const auto dump = [](const FrontierCache& cache) {
    std::vector<SessionState::CacheEntry> entries;
    entries.reserve(cache.size());
    for (const auto& [key, cached] : cache) {
      entries.push_back({key.words, cached.frontier});
    }
    std::sort(entries.begin(), entries.end(),
              [](const SessionState::CacheEntry& a, const SessionState::CacheEntry& b) {
                return a.key_words < b.key_words;
              });
    return entries;
  };
  out.colour_cache = dump(colour_cache_);
  out.region_cache = dump(region_cache_);
  return out;
}

ResolveSession::ResolveSession(RestoreTag, SessionState state)
    : plan_(parse_plan(state.plan_spec)),
      tree_(std::move(state.tree)),
      colouring_(std::make_unique<Colouring>(*tree_)) {
  // The Assignment constructor validates the cut against the rebuilt
  // colouring; delay is a pure function of tree + cut, so recomputing it
  // reproduces the original bit for bit (the same summation the original
  // report ran).
  Assignment assignment(*colouring_, state.cut);
  DelayBreakdown delay = assignment.delay();
  MethodStats method_stats;
  if (state.has_dp_stats) method_stats = state.dp_stats;
  report_ = std::make_unique<SolveReport>(
      SolveReport{std::move(assignment), std::move(delay), state.objective_value,
                  /*wall_seconds=*/0.0, state.exact, state.method, state.requested,
                  std::move(method_stats)});
  stats_ = state.stats;
  stats_.wall_seconds = 0.0;
  // Every restored entry is stamped with attempt 0, the one before the
  // restored session's next attempt: all of them read as state that
  // survived from an earlier step, as they would in the exported session.
  // Entries move in: decode and export both hand over exact-capacity
  // arrays, which is what cached_bytes() accounts.
  const auto adopt = [this](FrontierCache& cache, SessionState::CacheEntry& e) {
    ContentKey key;
    key.words = std::move(e.key_words);
    key.hash = fnv1a_words(key.words);
    TS_REQUIRE(insert(cache, std::move(key), std::move(e.frontier)) != nullptr,
               "import_state: duplicate cache key");
  };
  // Region entries first: a colour entry's cuts are rebuilt from them.
  for (SessionState::CacheEntry& e : state.region_cache) {
    const FrontierEntry& f = e.frontier;
    const std::size_t nodes = region_key_nodes(e.key_words);
    require_values(f);
    TS_REQUIRE(f.region_index.empty(), "import_state: region cache entry carries region indices");
    TS_REQUIRE(f.cut_offsets.size() == f.size() + 1 && f.cut_offsets.front() == 0 &&
                   f.cut_offsets.back() == f.cut_positions.size(),
               "import_state: region cache entry's cut offsets do not span its "
                   << f.cut_positions.size() << " cut positions");
    for (std::size_t i = 0; i < f.size(); ++i) {
      TS_REQUIRE(f.cut_offsets[i] <= f.cut_offsets[i + 1],
                 "import_state: region cache entry's cut offsets are not monotone");
    }
    // Offsets now partition the positions; each cut is in canonical form.
    for (std::size_t i = 0; i < f.size(); ++i) {
      for (std::uint32_t c = f.cut_offsets[i] + 1; c < f.cut_offsets[i + 1]; ++c) {
        TS_REQUIRE(f.cut_positions[c] > f.cut_positions[c - 1],
                   "import_state: a cached cut's positions are not strictly increasing");
      }
    }
    for (const std::uint32_t pos : f.cut_positions) {
      TS_REQUIRE(pos < nodes, "import_state: cached cut position "
                                  << pos << " is outside its key's " << nodes << " nodes");
    }
    adopt(region_cache_, e);
  }
  for (SessionState::CacheEntry& e : state.colour_cache) {
    const FrontierEntry& f = e.frontier;
    std::vector<std::vector<std::uint64_t>> region_words = colour_key_regions(e.key_words);
    const std::size_t count = region_words.size();
    require_values(f);
    TS_REQUIRE(f.cut_offsets.empty() && f.cut_positions.empty(),
               "import_state: colour cache entry carries cuts");
    TS_REQUIRE(f.region_index.size() == f.size() * count,
               "import_state: colour cache entry's index rows do not hold one index for each "
               "of its key's "
                   << count << " regions");
    for (std::size_t k = 0; k < count; ++k) {
      ContentKey region_key;
      region_key.words = std::move(region_words[k]);
      region_key.hash = fnv1a_words(region_key.words);
      const auto region = region_cache_.find(region_key);
      TS_REQUIRE(region != region_cache_.end(),
                 "import_state: colour cache entry's region " << k << " has no region entry");
      const std::size_t width = region->second.frontier.size();
      for (std::size_t i = 0; i < f.size(); ++i) {
        TS_REQUIRE(f.region_index[i * count + k] < width,
                   "import_state: colour cache index " << f.region_index[i * count + k]
                                                       << " is outside its region's " << width
                                                       << "-point frontier");
      }
    }
    adopt(colour_cache_, e);
  }
}

ResolveSession ResolveSession::import_state(SessionState state) {
  TS_REQUIRE(state.has_session(),
             "import_state: tree-only state holds no session to rebuild");
  TS_REQUIRE(state.tree != nullptr, "import_state: state carries no tree");
  return ResolveSession(RestoreTag{}, std::move(state));
}

const SolveReport& ResolveSession::resolve(const Perturbation& p) {
  const Stopwatch watch;  // documented to cover the perturbation too
  // The warm re-solve's phase spans (region rebuilds, dp.sweep) nest here.
  // Attributes are recorded after solve_current so the span carries the
  // path/reuse outcome -- all deterministic (stats_ minus wall_seconds).
  obs::Span span(obs::trace(), "session.resolve");
  // Validate-then-commit: an invalid perturbation throws here, leaving the
  // session on its previous instance.
  auto new_tree = std::make_shared<const CruTree>(apply_perturbation(*tree_, p));
  auto new_colouring = std::make_unique<Colouring>(*new_tree);
  // A satellite drift keeps the topology and every other colour's content
  // as it was at the last successful solve, which the memo remembers.
  std::optional<SatelliteId> drifted;
  const ProfileDrift* drift = p.as<ProfileDrift>();
  if (drift != nullptr && drift->satellite.valid() && !memo_.colour.empty() &&
      new_tree->shares_topology_with(*tree_)) {
    drifted = drift->satellite;
  }
  std::shared_ptr<const CruTree> old_tree = std::move(tree_);
  std::unique_ptr<Colouring> old_colouring = std::move(colouring_);
  tree_ = std::move(new_tree);
  colouring_ = std::move(new_colouring);
  try {
    solve_current(&p, drifted);
  } catch (...) {
    // A solver failure (e.g. ResourceLimit) must not leave current()'s
    // assignment referencing a destroyed colouring: roll back to the
    // previous instance, which the previous report belongs to.
    tree_ = std::move(old_tree);
    colouring_ = std::move(old_colouring);
    throw;
  }
  stats_.wall_seconds = watch.seconds();
  span.attr("path", resolve_path_name(stats_.path));
  span.attr("regions_total", static_cast<std::uint64_t>(stats_.regions_total));
  span.attr("regions_reused", static_cast<std::uint64_t>(stats_.regions_reused));
  if (!stats_.cold_reason.empty()) span.attr("cold_reason", stats_.cold_reason);
  return *report_;
}

StreamResult solve_stream(const CruTree& base, std::span<const Perturbation> stream,
                          const SolvePlan& plan) {
  StreamResult out;
  out.warm = plan.executor().warm_start;

  if (out.warm) {
    // Same deadline contract as solve_batch_report: checked between steps, a
    // running solve is never interrupted. A warm stream is inherently
    // sequential and fail-fast (step i's state feeds step i+1), so the
    // first failure -- deadline included -- propagates as an exception,
    // mirroring the cold path's take_reports() rethrow.
    const double deadline = plan.executor().deadline_seconds;
    // The deadline bounds the whole call, the initial base solve included;
    // the *reported* wall clock starts after it, because the cold baseline
    // never solves the unperturbed base and wall_seconds is what
    // bench_incremental's warm-vs-cold comparison reads.
    const Stopwatch deadline_watch;
    ResolveSession session(base, plan);
    const Stopwatch watch;
    for (const Perturbation& p : stream) {
      if (deadline > 0.0 && deadline_watch.seconds() >= deadline) {
        throw ResourceLimit("solve_stream: deadline expired after " +
                            std::to_string(out.reports.size()) + " of " +
                            std::to_string(stream.size()) + " warm steps");
      }
      session.resolve(p);
      out.trees.push_back(session.tree());
      out.colourings.emplace_back(out.trees.back());
      const SolveReport& r = session.current();
      out.reports.push_back(SolveReport{
          Assignment(out.colourings.back(), r.assignment.cut_nodes()), r.delay,
          r.objective_value, r.wall_seconds, r.exact, r.method, r.requested, r.stats});
      out.stats.push_back(session.last_stats());
    }
    out.threads_used = 1;
    out.wall_seconds = watch.seconds();
  } else {
    const Stopwatch watch;
    CruTree current = base;
    for (const Perturbation& p : stream) {
      current = apply_perturbation(current, p);
      out.trees.push_back(current);
    }
    std::vector<const Colouring*> instances;
    instances.reserve(out.trees.size());
    for (const CruTree& t : out.trees) {
      out.colourings.emplace_back(t);
      instances.push_back(&out.colourings.back());
    }
    BatchReport batch = solve_batch_report(instances, plan);
    out.threads_used = batch.threads_used;
    out.reports = batch.take_reports();
    for (std::size_t i = 0; i < out.reports.size(); ++i) {
      ResolveStats s;
      s.path = ResolvePath::kCold;
      s.step = i + 1;
      s.regions_total = out.colourings[i].region_roots().size();
      s.wall_seconds = out.reports[i].wall_seconds;
      s.cold_reason = "warm_start=false";
      out.stats.push_back(std::move(s));
    }
    out.wall_seconds = watch.seconds();
  }
  return out;
}

}  // namespace treesat
