// The sharded, tiered warm-session store behind treesat-serve.
//
// A serving deployment keeps one warm ResolveSession per live
// tenant/instance pair: the session's frontier caches are what turn a
// perturb request into a warm re-solve instead of a cold one
// (core/incremental.hpp). Warm state is memory, so the store meters it:
// every entry carries a deterministic byte estimate -- the tree's
// structural footprint plus the session's retained DP state
// (ResolveSession::cached_bytes(); a solve's fold arena is per-thread
// scratch, not session state, and is not charged) -- and when the total
// exceeds the configured budget the least-recently-used entries are
// evicted until it fits.
//
// Tiering. With a spill directory configured, budget victims are not
// destroyed: their storage/snapshot.hpp bytes are written into the store's
// segment file (storage/segment.hpp) -- one file per store, in which a spill
// pwrite()s a free slot and a reload pread()s it back and frees it -- keeping
// their LRU stamp, and a store miss checks that tier and reloads the session
// on demand. Warm state survives memory pressure at the cost of one snapshot
// round-trip, and no spill or reload creates, renames or unlinks a file. A
// spill encodes straight from the live session, and both directions go
// through one byte buffer the store keeps, so neither allocates per call. The
// segment is compacted when its dead bytes exceed its live bytes, and it is
// unlinked when the store is destroyed; a moved-from store owns none. The
// spill tier has its own byte budget; when it overflows, the coldest spilled
// sessions are dropped for real. An instance lives in at most one tier at a
// time.
//
// Sharding and determinism. Entries hash-partition across `shards` buckets
// (the layout a concurrent frontend would lock per shard), but nothing
// observable depends on the shard count: lookups go straight to the owning
// shard, and eviction picks its victim by a *global* strict total order --
// smallest last-touch stamp, ties broken by key -- scanning every shard.
// Spilling preserves this: snapshot bytes are a pure function of the
// resolve history (wall-clock is zeroed on export), so spilled record sizes,
// spill-tier gauges and reload outcomes replay identically at shards=1 and
// shards=8 -- the half of the service's byte-identity contract that the
// store owns (tests/service_determinism_test.cpp asserts it end to end).
//
// Fault wall. The spill tier survives its own storage: a corrupt,
// truncated, misowned or unreadable snapshot on reload is quarantined (its
// bytes are copied to `<snapshot_file_name>.bad` in the spill directory for
// post-mortem) and the entry is rebuilt cold from the tree-only snapshot
// every spill record retains, so one bad byte on disk degrades a request to
// a cold re-solve instead of failing it. A failed spill *write* leaves a
// slotless tombstone record with the same retained snapshot, and a vanished
// spill directory loses every slot written before it. All of these count
// into `spill_faults`; none of them throw. A FaultPlan (storage/faults.hpp)
// injects exactly these failures deterministically --
// tests/service_fault_test.cpp drives every point through this contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/incremental.hpp"
#include "core/plan.hpp"
#include "storage/faults.hpp"
#include "storage/segment.hpp"

namespace treesat {

/// One resident tenant/instance. Holds the submitted tree until the first
/// solve materializes a warm ResolveSession; afterwards the session's own
/// (perturbation-evolved) tree is authoritative and `tree` is released.
struct SessionEntry {
  std::string tenant;
  std::string instance;
  std::string plan_spec;  ///< canonical spec the session was built with
  std::shared_ptr<const CruTree> tree;      ///< pre-session storage
  std::unique_ptr<ResolveSession> session;  ///< null until the first solve
  std::size_t bytes = 0;      ///< last byte estimate charged to the budget
  std::uint64_t stamp = 0;    ///< global LRU clock value of the last touch

  [[nodiscard]] const CruTree& current_tree() const {
    return session ? session->tree() : *tree;
  }
};

/// What one eviction sweep removed from memory (telemetry attribution).
struct EvictedEntry {
  std::string tenant;
  std::string instance;
  std::size_t bytes = 0;
  bool spilled = false;  ///< preserved in the spill tier vs destroyed
};

/// One spilled tenant/instance: a snapshot's bytes in the store's segment.
/// The LRU stamp is carried over from residency so the spill tier's own
/// budget evicts in the same global order the memory tier would have.
struct SpillRecord {
  std::string tenant;
  std::string instance;
  /// Where the snapshot sits in the segment; its length is the record's
  /// charge to spill_bytes(). Length 0 marks a slotless tombstone (the
  /// spill write failed). The segment may have lost the slot since (a
  /// vanished spill directory); the length is still charged until reload.
  SegmentFile::Extent extent;
  std::uint64_t stamp = 0;  ///< stamp at spill time
  /// Tree-only snapshot (storage/snapshot.hpp) of the owner and the tree
  /// at spill time -- the fault wall's cold-recovery fallback when the
  /// slot is lost or corrupt, and what a checkpoint writes for a
  /// tombstone. Framed from the spilled payload's owner-and-node-table
  /// prefix (a checkpoint restore derives it from the verified bytes the
  /// same way), so every record has one and the tree is never encoded
  /// twice. Not charged to either byte gauge (it is bookkeeping, not warm
  /// state).
  std::string fallback;
};

/// What an explicit evict did with the entry.
enum class EvictFate : std::uint8_t {
  kAbsent,   ///< not in either tier
  kDropped,  ///< destroyed (no spill tier, spilled-and-dropped, or drop=true)
  kSpilled,  ///< preserved in (or already resident in) the spill tier
};

/// Session identity of a plan: the canonical spec with the executor keys
/// (threads/deadline_ms/fail_fast/warm_start) stripped. They are
/// documented -- and asserted, see service_test -- to never change a
/// result, so a client re-tuning parallelism must keep its warm session
/// instead of triggering a cold "plan changed" rebuild. The session keeps solving
/// with the options it was built under. Also how a spill reload recovers
/// an entry's plan identity from the snapshot's full plan spec.
[[nodiscard]] std::string session_plan_key(SolvePlan plan);

/// The SessionState a snapshot of `entry` carries: the session's
/// export_state() (or a tree-only state before the first solve) stamped
/// with the entry's owner. The spill tier and checkpoints write the same
/// bytes through encode_entry_snapshot(), without building the state.
[[nodiscard]] SessionState session_entry_state(const SessionEntry& entry);

/// The same snapshot's bytes, encoded straight from the live entry into
/// `buffer` (storage/snapshot.hpp's encode_snapshot over snapshot_source):
/// byte-identical to encode_snapshot(session_entry_state(entry)) without the
/// state's copies. The view is valid until `buffer` next changes; `fallback`,
/// when non-null, receives the entry's tree-only snapshot. The spill tier
/// and checkpoints encode through here.
[[nodiscard]] std::string_view encode_entry_snapshot(const SessionEntry& entry,
                                                     std::string& buffer,
                                                     std::string* fallback = nullptr);

/// Inverse of session_entry_state(): rebuilds a SessionEntry (owner, tree
/// or imported session, canonical plan key, byte estimate) from a decoded
/// state, sharing its tree. The caller assigns the LRU stamp. The rvalue
/// form moves the state's caches into the session; the other copies them.
[[nodiscard]] SessionEntry session_entry_from_state(const SessionState& state);
[[nodiscard]] SessionEntry session_entry_from_state(SessionState&& state);

class SessionStore {
 public:
  /// The largest shard count a store accepts. entries(), sessions() and
  /// every eviction scan walk all shards, and the count comes from
  /// client-facing config, so it is bounded before anything is sized by it.
  static constexpr std::size_t kMaxShards = 1024;

  /// `shards` in [1, kMaxShards]; `mem_budget` in bytes, 0 = unlimited. A
  /// non-empty `spill_dir` enables the spill tier (the directory is created if
  /// missing, the segment file on the first spill); `spill_budget` bounds its
  /// bytes, 0 = unlimited.
  SessionStore(std::size_t shards, std::size_t mem_budget, std::string spill_dir = "",
               std::size_t spill_budget = 0);

  /// Looks an entry up and touches its LRU stamp. On a memory miss the
  /// spill tier is consulted and a hit is reloaded into memory (the spill
  /// copy is consumed); `*reloaded` reports when that happened. nullptr
  /// when the entry is in neither tier.
  [[nodiscard]] SessionEntry* find(const std::string& tenant, const std::string& instance,
                                   bool* reloaded = nullptr);

  /// True when the entry is in either tier. No stamp touch, no reload.
  [[nodiscard]] bool contains(const std::string& tenant, const std::string& instance) const;

  /// Inserts (or replaces -- a re-submit drops any warm state, spilled
  /// copies included) an entry and touches it. The caller runs
  /// enforce_budget afterwards.
  SessionEntry& put(const std::string& tenant, const std::string& instance, CruTree tree);

  /// Explicitly evicts one entry. Without `drop`, a resident entry moves
  /// to the spill tier when one is configured (kSpilled) and is destroyed
  /// otherwise (kDropped); an already-spilled entry stays put (kSpilled).
  /// With `drop`, the entry is destroyed wherever it lives.
  EvictFate evict(const std::string& tenant, const std::string& instance, bool drop);

  /// Re-estimates `entry`'s bytes (its session may have grown or shrunk)
  /// and updates the store total. Constant time: the session keeps its
  /// cache bytes as a running total.
  void refresh_bytes(SessionEntry& entry);

  /// Evicts least-recently-used entries -- never `protect`, the entry the
  /// current request is operating on -- until the total fits the budget.
  /// Victim order is shard-count-invariant: smallest stamp first, ties by
  /// (tenant, instance). With a spill tier, victims are spilled (and the
  /// spill tier's own budget then drops its coldest files). Returns what
  /// left memory, oldest first.
  std::vector<EvictedEntry> enforce_budget(const SessionEntry* protect);

  /// Deterministic byte estimate: structural tree footprint plus the
  /// session's retained search state (its frontier caches).
  [[nodiscard]] static std::size_t estimate_bytes(const CruTree& tree,
                                                  const ResolveSession* session);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t mem_budget() const { return mem_budget_; }
  [[nodiscard]] std::size_t bytes_used() const { return bytes_used_; }
  [[nodiscard]] std::size_t entries() const;
  /// Entries holding a live ResolveSession.
  [[nodiscard]] std::size_t sessions() const;
  [[nodiscard]] std::size_t lru_evictions() const { return lru_evictions_; }

  // --- spill tier ---
  [[nodiscard]] bool spill_enabled() const { return !spill_dir_.empty(); }
  [[nodiscard]] const std::string& spill_dir() const { return spill_dir_; }
  [[nodiscard]] std::size_t spill_budget() const { return spill_budget_; }
  [[nodiscard]] std::size_t spill_bytes() const { return spill_bytes_; }
  [[nodiscard]] std::size_t spill_entries() const { return spill_records_.size(); }
  [[nodiscard]] std::size_t spills() const { return spills_; }
  [[nodiscard]] std::size_t spill_reloads() const { return spill_reloads_; }
  [[nodiscard]] std::size_t spill_drops() const { return spill_drops_; }

  // --- fault wall ---
  /// Arms the injection plan (storage/faults.hpp). The store owns the live
  /// copy: its trial counters advance with the request stream, so a
  /// replayed trace injects the same faults at any shard count.
  void set_fault_plan(FaultPlan plan) { faults_ = std::move(plan); }
  [[nodiscard]] const FaultPlan& fault_plan() const { return faults_; }
  /// Spill-tier faults survived (injected or real): failed writes, and
  /// corrupt/unreadable snapshots recovered cold on reload.
  [[nodiscard]] std::size_t spill_faults() const { return spill_faults_; }
  /// Checkpoint snapshots skipped during restore (storage/checkpoint.cpp
  /// counts them via count_restore_faults).
  [[nodiscard]] std::size_t restore_faults() const { return restore_faults_; }
  void count_restore_faults(std::size_t n) { restore_faults_ += n; }

  // --- checkpoint/restore seams (storage/checkpoint.cpp) ---
  /// The global LRU clock, so a restored store keeps aging exactly where
  /// the checkpointed one stopped.
  [[nodiscard]] std::uint64_t clock() const { return clock_; }
  void restore_clock(std::uint64_t clock) { clock_ = clock; }
  void restore_counters(std::size_t lru_evictions, std::size_t spills,
                        std::size_t spill_reloads, std::size_t spill_drops,
                        std::size_t spill_faults, std::size_t restore_faults);
  /// Inserts a rebuilt entry with an explicit stamp (no clock touch). The
  /// key must be vacant in both tiers.
  SessionEntry& restore_entry(SessionEntry entry, std::uint64_t stamp);
  /// Writes verified snapshot bytes into the segment and registers them as
  /// a spill-tier entry whose fallback is `fallback` (the tree-only
  /// snapshot decode_snapshot derives from the same bytes), so a restored
  /// record that fails to reload falls back cold like a live one. Throws
  /// ResourceLimit when the segment write fails.
  void restore_spilled(const std::string& tenant, const std::string& instance,
                       std::uint64_t stamp, std::string_view bytes, std::string fallback);
  /// Resident entries in (tenant, instance) order -- the deterministic
  /// enumeration a checkpoint serializes.
  [[nodiscard]] std::vector<const SessionEntry*> resident_by_key() const;
  /// Spilled entries, keyed by tenant + '/' + instance (sorted by key).
  [[nodiscard]] const std::map<std::string, SpillRecord>& spill_records() const {
    return spill_records_;
  }
  /// A record's snapshot bytes as the segment holds them (possibly
  /// damaged); empty for a tombstone, a lost slot or an unreadable one.
  [[nodiscard]] std::string spilled_bytes(const SpillRecord& record) const;
  /// The segment file's path; empty until the first spill.
  [[nodiscard]] const std::string& segment_path() const { return segment_.path(); }

 private:
  struct Shard {
    std::unordered_map<std::string, SessionEntry> entries;  ///< key: tenant + '/' + instance
  };

  [[nodiscard]] static std::string key_of(const std::string& tenant,
                                          const std::string& instance);
  [[nodiscard]] std::size_t shard_of(const std::string& key) const;
  /// Writes `entry`'s snapshot into the segment and registers the record
  /// (stamp preserved). The caller removes the resident entry.
  void spill_entry(const SessionEntry& entry);
  /// Deletes a spill record and frees its slot. `budget_drop` attributes
  /// the removal to spill-budget pressure (counter + telemetry).
  void drop_spilled(const std::string& key, bool budget_drop);
  /// Frees an erased record's slot, compacting the segment once its dead
  /// bytes exceed its live bytes.
  void release_slot(const SegmentFile::Extent& extent);
  /// Drops the coldest spilled entries until the spill budget fits.
  void enforce_spill_budget();

  std::vector<Shard> shards_;
  std::size_t mem_budget_;
  std::string spill_dir_;
  std::size_t spill_budget_;
  std::map<std::string, SpillRecord> spill_records_;
  SegmentFile segment_;
  /// One byte buffer for every spill and reload: a spill encodes and frames
  /// its snapshot here, a reload reads a slot back into it. It keeps the
  /// capacity of the largest record seen, so neither allocates per call.
  std::string buffer_;
  std::size_t bytes_used_ = 0;
  std::size_t spill_bytes_ = 0;
  std::uint64_t clock_ = 0;
  std::size_t lru_evictions_ = 0;
  std::size_t spills_ = 0;
  std::size_t spill_reloads_ = 0;
  std::size_t spill_drops_ = 0;
  std::size_t spill_faults_ = 0;
  std::size_t restore_faults_ = 0;
  FaultPlan faults_;
};

}  // namespace treesat
