// Incremental re-solving for drifting workloads.
//
// The paper's motivating deployments are long-running: a tele-monitoring
// patient walks in and out of coverage, probe boxes join and leave an SNMP
// mesh, reasoning profiles drift as signals change. Every solve in the
// facade is cold -- it recomputes every colour region's search state and
// starts its bounds from +inf. This module is the warm path: a
// ResolveSession keeps a solved instance *live* and re-solves perturbed
// versions of it by re-processing only what the perturbation can reach.
//
// A step costs what it changes. A drift changes costs, never shape: it
// copies the tree's cost arrays, rescales the touched nodes in place and
// keeps the topology (CruTree::rescaled), so the drifted tree shares its
// predecessor's topology and, through it, the colouring's structure (see
// Colouring); only the forced host time is summed again. Loss and insertion
// change the shape and build a new topology through CruTreeBuilder.
//
// Three pieces:
//
//   * Perturbation -- one change to the live instance: profile drift
//     (scaled sigma/beta costs, globally or per satellite), satellite loss
//     (the device and its sensors drop out), or subtree insertion (a probe
//     joins). apply_perturbation() is the pure-function form.
//   * ResolveSession -- holds the current tree/colouring/optimum plus the
//     reusable search state: the per-region Pareto frontiers and the merged
//     per-colour frontiers (the surviving colour-region composite
//     expansions of the DP engine -- the Minkowski chains dominate the cold
//     solve, so whole-colour reuse is the big win), keyed by exact region
//     content so a frontier is reused only when a cold solve would have
//     recomputed bit-identical values, and the previous optimum, which
//     warm-starts the SSB threshold (ColouredSsbOptions::warm_cut) and the
//     branch-and-bound incumbent (BranchBoundOptions::incumbent_cut) when
//     the session's plan runs those engines. resolve(p) applies a
//     perturbation and re-solves, reporting in ResolveStats which path ran
//     (warm, or cold with the reason) and how much state survived.
//   * solve_stream() -- runs a whole perturbation stream. With
//     plan.executor().warm_start (spec key warm_start=) the session is
//     threaded along the sequence; without it every step is materialized
//     and cold-solved as one solve_batch_report batch, which is the
//     apples-to-apples baseline bench_incremental measures against.
//
// Identity guarantee: with a pareto-dp plan the warm result is byte-
// identical to a cold solve of the same plan on the perturbed instance --
// cached frontiers are reused only on an exact content match (bit patterns
// of every cost included), so the merge/sweep consumes the same values a
// cold run would compute. The warm solve runs the cold solve's own fold
// engine (core/pareto_kernel.hpp): cached region and colour frontiers are
// imported into the arena as leaf points, folded with the same merge in the
// same order, and finished by the same sweep. A region entry keeps its
// points' cuts; a colour entry keeps, per point, the index it took in each
// of its regions' frontiers, so a cut is rebuilt from the region entries
// only for the one point per colour the sweep picks. For coloured-ssb and
// branch-bound plans the warm start preserves exactness (same optimal
// value) but may return the previous cut among equal-valued optima.
//
// Retention: the caches hold exactly what the latest successful solve
// touched. After each one, every entry it did not hit or insert is erased,
// so a session keeps one generation of state and a snapshot spills only
// what the next solve can read. A colour hit touches its region entries
// too, so every retained colour entry's regions are retained with it.
// Between solves a session also remembers which colour entry and which
// region entries served each colour at its latest successful solve (an
// imported session starts without that memory). After a satellite drift
// every other colour's content is unchanged, so those colours skip
// enumeration, encoding, hashing and lookup and are stamped and imported
// from the remembered entries exactly as a colour hit is; the drifted
// colour, every colour of a global drift and every colour after a loss or
// insertion are still matched by content key. The memory changes no
// answer, no ResolveStats counter and no cached_bytes().
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/executor.hpp"
#include "core/pareto_dp.hpp"
#include "core/solver.hpp"
#include "tree/cru_tree.hpp"

namespace treesat {

/// Profile drift: the per-frame cost profile of one satellite's colour
/// region(s) -- or of the whole workload -- changes by multiplicative
/// factors. Scales are applied to the propagated-colour node set: compute
/// nodes scale h (the sigma side) by host_scale and s by sat_scale, every
/// node of the colour scales comm_up (the beta side) by comm_scale. A
/// global drift (invalid satellite) additionally reaches the conflict nodes
/// and the root, whose h is part of every assignment's S.
struct ProfileDrift {
  SatelliteId satellite;     ///< invalid = the whole workload drifts
  double host_scale = 1.0;   ///< multiplies h (sigma)
  double sat_scale = 1.0;    ///< multiplies s (beta, compute side)
  double comm_scale = 1.0;   ///< multiplies comm_up (beta, link side)
};

/// Satellite loss: the device fails. Its sensors stop producing and leave
/// the tree; compute nodes whose whole subtree vanished are pruned with
/// them. Node ids are compacted (parents still precede children); the
/// remaining satellites keep their ids. Losing the workload's last sensors
/// is rejected with InvalidArgument.
struct SatelliteLoss {
  SatelliteId satellite;
};

/// Subtree insertion: a probe joins. `nodes` are appended under `parent`
/// (a compute node of the current tree) in parent-before-child order;
/// existing node ids are unchanged, new nodes get the next ids in order.
/// New sensors may name a brand-new satellite id (the platform grew).
struct SubtreeInsert {
  /// Sentinel parent index: attach directly under SubtreeInsert::parent.
  static constexpr std::size_t kAttach = static_cast<std::size_t>(-1);

  struct Node {
    std::size_t parent = kAttach;  ///< index of an earlier Node, or kAttach
    CruKind kind = CruKind::kCompute;
    std::string name;              ///< unique, whitespace-free
    double host_time = 0.0;
    double sat_time = 0.0;
    double comm_up = 0.0;
    SatelliteId satellite;         ///< sensors only
  };

  CruId parent;                    ///< attach point in the current tree
  std::vector<Node> nodes;
};

/// One change to a live instance. Build with the named factories.
class Perturbation {
 public:
  using Change = std::variant<ProfileDrift, SatelliteLoss, SubtreeInsert>;

  [[nodiscard]] static Perturbation drift(ProfileDrift drift);
  /// Global drift over the whole workload.
  [[nodiscard]] static Perturbation global_drift(double host_scale, double sat_scale,
                                                double comm_scale);
  /// Drift of one satellite's colour region(s).
  [[nodiscard]] static Perturbation satellite_drift(SatelliteId satellite, double host_scale,
                                                    double sat_scale, double comm_scale);
  [[nodiscard]] static Perturbation satellite_loss(SatelliteId satellite);
  [[nodiscard]] static Perturbation insert_subtree(SubtreeInsert insert);
  /// Convenience: one compute CRU with one sensor under it -- the shape of
  /// a probe joining an SNMP mesh.
  [[nodiscard]] static Perturbation insert_probe(CruId parent, const std::string& name,
                                                 SatelliteId satellite, double host_time,
                                                 double sat_time, double comm_up,
                                                 double sensor_comm_up);

  [[nodiscard]] const Change& change() const { return change_; }
  /// "drift", "loss" or "insert" (for tables and logs).
  [[nodiscard]] const char* kind_name() const;

  template <typename T>
  [[nodiscard]] const T* as() const {
    return std::get_if<T>(&change_);
  }

 private:
  explicit Perturbation(Change change) : change_(std::move(change)) {}
  Change change_;
};

/// Applies one perturbation to a tree, returning the perturbed tree. A
/// drift returns a tree that shares `tree`'s topology with rescaled costs;
/// loss and insertion build a new topology. Throws InvalidArgument when the
/// perturbation is invalid against `tree` (unknown satellite, non-positive
/// scale, attach point on a sensor, loss of the whole workload, costs that
/// break the tree's cost rule, ...).
[[nodiscard]] CruTree apply_perturbation(const CruTree& tree, const Perturbation& p);

/// Which path a resolve took.
enum class ResolvePath : std::uint8_t {
  kInitial,  ///< the session's constructor solve
  kWarm,     ///< cached state survived and was reused
  kCold,     ///< nothing reusable -- equivalent to a fresh facade solve
};

[[nodiscard]] const char* resolve_path_name(ResolvePath path);

/// What one ResolveSession::resolve() did and what it cost.
struct ResolveStats {
  ResolvePath path = ResolvePath::kInitial;
  std::size_t step = 0;               ///< 0 = initial solve, then 1, 2, ...
  std::size_t regions_total = 0;      ///< colour regions of the instance
  /// Region frontiers served from state that survived from an *earlier*
  /// step. Same-step duplicates (two content-identical regions in one
  /// instance) count as recomputed: they are deduplicated fresh work, not
  /// survival, so a fully-invalidated re-solve is never reported warm.
  std::size_t regions_reused = 0;
  std::size_t regions_recomputed = 0; ///< frontiers computed (or deduplicated) this step
  std::size_t colours_total = 0;      ///< colours with at least one region
  std::size_t colours_reused = 0;     ///< whole merged colour frontiers reused
  std::size_t cache_entries = 0;      ///< cache size after the step
  bool incumbent_used = false;        ///< previous optimum seeded the engine
  double wall_seconds = 0.0;          ///< this resolve, perturbation included
  std::string cold_reason;            ///< why the cold path ran; empty when warm
};

/// Plain serializable mirror of a ResolveSession: everything export_state()
/// captures and import_state() needs to rebuild a session whose *future*
/// behavior is byte-identical to the original's -- the tree itself (an
/// immutable CruTree, shared with the session that exported it, so neither
/// export nor import copies or re-parses it), the plan, the current optimum
/// reduced to its cut (Assignment and DelayBreakdown are pure functions of
/// tree + cut and are recomputed bit-exactly on import), the last
/// ResolveStats, and both frontier caches entry by entry. Entry stamps and
/// the attempt clock are not part of it: a stamp is only ever compared
/// within one session's lifetime, and every restored entry predates the
/// restored session's next attempt. storage/snapshot.hpp turns this struct
/// into the on-disk format.
///
/// Deliberate reductions, both documented parts of the snapshot contract:
///   * wall-clock fields (report/stats wall_seconds) are zeroed on export --
///     they are observations, not state, and zeroing them makes a snapshot
///     a pure function of the resolve history, which is what lets the
///     serving tier treat snapshot byte sizes as deterministic gauges;
///   * of the per-method stats variants only ParetoDpStats is carried
///     (has_dp_stats) -- it is the one variant a session fills itself;
///     other methods' stats are diagnostics of the solve that produced them
///     and restore as monostate.
struct SessionState {
  /// Canonical plan spec (core/registry.hpp plan_spec). Empty marks a
  /// tree-only state: a submitted-but-never-solved instance (the serving
  /// tier spills those too); only `tree` (and owner) is meaningful then.
  std::string plan_spec;
  std::shared_ptr<const CruTree> tree;  ///< the current tree; never null in a valid state

  /// Owning tenant/instance when the state belongs to a session store
  /// (service/session_store.hpp); empty for standalone snapshots. A spill
  /// reload verifies these against the key it looked up, so a misplaced
  /// file cannot impersonate another tenant's instance.
  std::string tenant;
  std::string instance;

  // --- the current report, reduced to what rebuilds it bit-exactly ---
  std::vector<CruId> cut;  ///< optimum cut nodes (Assignment's canonical form)
  double objective_value = 0.0;
  bool exact = false;
  SolveMethod method = SolveMethod::kParetoDp;
  SolveMethod requested = SolveMethod::kParetoDp;
  bool has_dp_stats = false;
  ParetoDpStats dp_stats;  ///< valid iff has_dp_stats

  ResolveStats stats;  ///< last_stats(), wall_seconds zeroed

  /// One frontier-cache entry: the exact content key words and the cached
  /// frontier in the form the cache stores it (FrontierEntry: a region
  /// entry with its region-local cuts, a colour entry with its per-point
  /// region indices).
  struct CacheEntry {
    std::vector<std::uint64_t> key_words;
    FrontierEntry frontier;
  };
  /// Cache entries sorted by key words, so exporting the same session twice
  /// yields identical bytes (unordered_map iteration order must not leak
  /// into a content-hashed snapshot).
  std::vector<CacheEntry> colour_cache;
  std::vector<CacheEntry> region_cache;

  [[nodiscard]] bool has_session() const { return !plan_spec.empty(); }
};

/// One frontier-cache entry by reference: its content key words and its
/// frontier, as the cache holds them. What ResolveSession::cache_entries()
/// lists and what the snapshot encoder reads (storage/snapshot.hpp), so a
/// live session is encoded without copying its caches.
struct CacheEntryView {
  std::span<const std::uint64_t> key_words;
  const FrontierEntry* frontier = nullptr;
};

/// A live solved instance with reusable search state.
///
///   ResolveSession session(std::move(tree));            // initial solve
///   session.resolve(Perturbation::satellite_drift(...)); // warm re-solve
///   session.current().delay.end_to_end();
///
/// The session owns its tree; the colouring, the report's assignment and
/// the cached state all reference session-owned storage, so the session
/// must outlive any reference taken from it. Warm capability by plan
/// method: pareto-dp reuses per-region frontiers (byte-identical to cold);
/// coloured-ssb and branch-bound warm-start their incumbent from the
/// previous optimum (exact, may tie-break differently); everything else
/// (oracle, heuristics) cold-solves each step.
class ResolveSession {
 public:
  explicit ResolveSession(CruTree tree, SolvePlan plan = SolvePlan::pareto_dp());

  ResolveSession(ResolveSession&&) noexcept = default;
  ResolveSession& operator=(ResolveSession&&) noexcept = default;

  [[nodiscard]] const CruTree& tree() const { return *tree_; }
  [[nodiscard]] const Colouring& colouring() const { return *colouring_; }
  [[nodiscard]] const SolvePlan& plan() const { return plan_; }
  /// The optimum of the current (most recently perturbed) instance.
  [[nodiscard]] const SolveReport& current() const { return *report_; }
  [[nodiscard]] const ResolveStats& last_stats() const { return stats_; }
  /// Perturbations applied so far.
  [[nodiscard]] std::size_t step() const { return stats_.step; }

  /// Applies `p` to the live instance and re-solves, warm when the cache
  /// allows. Returns the new optimum (also available as current()).
  /// Strong guarantee: on any throw (invalid perturbation, or a solver
  /// resource cap) the session rolls back to its previous instance and
  /// current() stays valid. Cache insertions made before the failure are
  /// kept -- they are content-keyed, so stale entries can never be matched
  /// incorrectly, only evicted.
  const SolveReport& resolve(const Perturbation& p);

  /// The session as a SessionState: the serializable form a snapshot file
  /// (storage/snapshot.hpp) persists. Wall-clock fields are zeroed and
  /// cache entries are emitted in sorted key order (see SessionState), so
  /// the export is deterministic for a given resolve history.
  [[nodiscard]] SessionState export_state() const;

  /// The colour-level (or region-level) cache's entries by reference,
  /// sorted by key words: the order export_state() emits them in. Valid
  /// until the session next changes.
  [[nodiscard]] std::vector<CacheEntryView> cache_entries(bool colour_level) const;

  /// Rebuilds a session from an exported state. The result is
  /// behaviorally byte-identical to the exported session: the same
  /// current() optimum (bit for bit), the same cached_bytes(), and the
  /// same warm/cold decisions and reuse counters on every future
  /// resolve(). The session adopts the state's tree without copying it,
  /// and a caller done with the state (a spill reload) moves it in, so its
  /// cache arrays move into the session instead of being copied.
  /// Throws InvalidArgument on anything inconsistent (unknown plan spec, no
  /// tree, a cut that is not a valid cut of the tree, a cached frontier
  /// that is empty, has a non-finite coordinate or is not sorted by load,
  /// region cut offsets that do not partition their positions, a point's
  /// cut positions out of order or outside its key, a colour entry whose
  /// region entries are absent or whose indices do not fit them) -- a
  /// snapshot that fails these checks is corrupt and must be rejected,
  /// never partially adopted.
  [[nodiscard]] static ResolveSession import_state(SessionState state);

  /// Bytes retained by the two frontier caches (points, cut positions,
  /// region indices and content keys) -- what a serving layer charges
  /// against its memory budget (service/session_store.hpp). A running
  /// total: entries never change after insertion, so it moves only on
  /// insert, on the post-solve sweep and on import. Deterministic for a
  /// given resolve history, and reproduced by export -> import.
  [[nodiscard]] std::size_t cached_bytes() const { return cached_bytes_; }

 private:
  struct CachedFrontier {
    /// Exact-capacity cache form. A region entry's cut positions index the
    /// region's canonical preorder, so a structurally identical region of a
    /// later tree can rebind them; a colour entry's points name a point of
    /// each of its region entries, which a colour hit requires present.
    FrontierEntry frontier;
    /// Stamp of the last solve *attempt* that touched the entry; the sweep
    /// after a successful solve erases every entry stamped before it.
    /// Attempts advance even when a resolve throws and rolls back, so a
    /// retry can never confuse the aborted attempt's stamps with its own
    /// fresh work, and tells reuse apart from same-step duplicates.
    std::size_t last_used = 0;
  };
  struct ContentKey {
    std::vector<std::uint64_t> words;  ///< exact content encoding
    std::size_t hash = 0;
  };
  /// A key's words in place, for lookups that must not copy them (an
  /// import finds a colour entry's regions by spans of its key).
  struct ContentKeyView {
    std::span<const std::uint64_t> words;
    std::size_t hash = 0;
  };
  // Transparent, so the cache can be searched by either form.
  struct ContentKeyHash {
    using is_transparent = void;
    std::size_t operator()(const auto& k) const { return k.hash; }
  };
  struct ContentKeyEqual {
    using is_transparent = void;
    bool operator()(const auto& a, const auto& b) const {
      return std::ranges::equal(a.words, b.words);
    }
  };
  using FrontierCache =
      std::unordered_map<ContentKey, CachedFrontier, ContentKeyHash, ContentKeyEqual>;

  /// What the last successful pareto-dp solve served each colour from: its
  /// colour entry (null for a colour without regions) and each region's
  /// entry, in the colouring's region order. Every one was touched by that
  /// solve, so its sweep kept them, and no entry is erased before the next
  /// successful solve replaces the memo: the pointers stay valid. Empty
  /// after import_state() and after a solve by another method.
  struct Memo {
    std::vector<CachedFrontier*> colour;
    std::vector<CachedFrontier*> region;
  };

  /// Inserts an entry stamped with the current attempt and charges its
  /// bytes; returns it, or null (and charges nothing) when the key is present.
  CachedFrontier* insert(FrontierCache& cache, ContentKey key, FrontierEntry frontier);
  /// Bytes one entry charges against cached_bytes().
  [[nodiscard]] static std::size_t entry_bytes(const FrontierCache::value_type& entry);

  /// import_state's private path: adopts restored state instead of solving.
  struct RestoreTag {};
  ResolveSession(RestoreTag, SessionState state);

  /// Solves the current instance. `drifted`, when set, is the one colour
  /// whose content may differ from the memo's: the memo serves every other.
  void solve_current(const Perturbation* p, std::optional<SatelliteId> drifted = std::nullopt);
  [[nodiscard]] SolveReport solve_warm_dp(const SolvePlan& resolved, ResolveStats& fresh,
                                          std::optional<SatelliteId> drifted, Memo& next);

  SolvePlan plan_;
  std::shared_ptr<const CruTree> tree_;  ///< immutable; shared with exported states
  std::unique_ptr<Colouring> colouring_;
  std::unique_ptr<SolveReport> report_;
  ResolveStats stats_;
  /// Solve attempts, rolled-back failures included (cache stamp domain).
  std::size_t attempt_ = 0;
  std::size_t cached_bytes_ = 0;
  /// Two reuse granularities: whole merged colour frontiers (the expensive
  /// Minkowski chains) and single region frontiers (useful when only one
  /// region of a colour changed, e.g. a probe insertion).
  FrontierCache colour_cache_;
  FrontierCache region_cache_;
  Memo memo_;
};

/// Result of solving a whole perturbation stream: step i's instance is the
/// base with perturbations [0..i] applied cumulatively, and reports[i] /
/// stats[i] belong to colourings[i] / trees[i] (deques: the reports hold
/// references into them).
struct StreamResult {
  std::deque<CruTree> trees;
  std::deque<Colouring> colourings;
  std::vector<SolveReport> reports;
  std::vector<ResolveStats> stats;
  /// Wall time of the stream's steps. On the warm path this excludes the
  /// session's initial solve of the unperturbed base (work the cold
  /// baseline never performs), so warm and cold values compare like for
  /// like -- bench_incremental's speedup gate depends on that.
  double wall_seconds = 0.0;
  std::size_t threads_used = 1;
  bool warm = false;  ///< which path ran (plan.executor().warm_start)
};

/// Solves every step of a perturbation stream. plan.executor().warm_start
/// picks the engine: warm threads a ResolveSession along the sequence
/// (inherently sequential and fail-fast -- step i's state feeds step i+1,
/// so the first failure throws, and the plan's deadline is checked between
/// steps exactly like the executor checks it between instances); cold
/// materializes every instance and solves them as one solve_batch_report
/// batch under the plan's threads/deadline/fail-fast knobs (failures
/// rethrown by take_reports, keeping the two paths' contracts aligned).
[[nodiscard]] StreamResult solve_stream(const CruTree& base,
                                        std::span<const Perturbation> stream,
                                        const SolvePlan& plan = SolvePlan::pareto_dp());

}  // namespace treesat
