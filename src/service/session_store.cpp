#include "service/session_store.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "core/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/snapshot.hpp"

namespace treesat {

namespace {

/// Copies damaged snapshot bytes to `path` so post-mortems can see what
/// the fault wall absorbed. Best effort: a quarantine that cannot be
/// written costs nothing but the copy.
void quarantine(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void count_spill_fault() {
  obs::count("treesat_spill_faults_total",
             "Spill writes/reloads that degraded to a cold re-solve");
}

}  // namespace

std::string session_plan_key(SolvePlan plan) {
  plan.with_executor(ExecutorOptions{});
  return plan_spec(plan);
}

SessionState session_entry_state(const SessionEntry& entry) {
  SessionState state;
  if (entry.session != nullptr) {
    state = entry.session->export_state();
  } else {
    state.tree = entry.tree;
  }
  state.tenant = entry.tenant;
  state.instance = entry.instance;
  return state;
}

std::string_view encode_entry_snapshot(const SessionEntry& entry, std::string& buffer,
                                       std::string* fallback) {
  SnapshotSource source;
  if (entry.session != nullptr) {
    source = snapshot_source(*entry.session);
  } else {
    source.tree = entry.tree.get();
  }
  source.tenant = entry.tenant;
  source.instance = entry.instance;
  return encode_snapshot(source, buffer, fallback);
}

SessionEntry session_entry_from_state(const SessionState& state) {
  return session_entry_from_state(SessionState(state));
}

SessionEntry session_entry_from_state(SessionState&& state) {
  SessionEntry entry;
  entry.tenant = state.tenant;
  entry.instance = state.instance;
  if (state.has_session()) {
    entry.session =
        std::make_unique<ResolveSession>(ResolveSession::import_state(std::move(state)));
    entry.plan_spec = session_plan_key(entry.session->plan());
    entry.bytes = SessionStore::estimate_bytes(entry.session->tree(), entry.session.get());
  } else {
    TS_REQUIRE(state.tree != nullptr, "SessionStore: tree-only state carries no tree");
    entry.tree = state.tree;
    entry.bytes = SessionStore::estimate_bytes(*entry.tree, nullptr);
  }
  return entry;
}

SessionStore::SessionStore(std::size_t shards, std::size_t mem_budget, std::string spill_dir,
                           std::size_t spill_budget)
    : mem_budget_(mem_budget),
      spill_dir_(std::move(spill_dir)),
      spill_budget_(spill_budget),
      segment_(spill_dir_) {
  // Checked before the shard vector is sized from it.
  TS_REQUIRE(shards >= 1 && shards <= kMaxShards,
             "SessionStore: shards must be in [1, " << kMaxShards << "], got " << shards);
  shards_.resize(shards);
  TS_REQUIRE(spill_budget_ == 0 || spill_enabled(),
             "SessionStore: spill_budget without a spill_dir");
  if (spill_enabled()) {
    std::error_code ec;
    std::filesystem::create_directories(spill_dir_, ec);
    if (ec) {
      throw ResourceLimit("SessionStore: cannot create spill directory '" + spill_dir_ +
                          "': " + ec.message());
    }
  }
}

std::string SessionStore::key_of(const std::string& tenant, const std::string& instance) {
  return tenant + '/' + instance;
}

std::size_t SessionStore::shard_of(const std::string& key) const {
  // Stable across runs and platforms (std::hash is neither guaranteed), so
  // a trace replays onto the same shard layout everywhere.
  return static_cast<std::size_t>(fnv1a_bytes(key) % shards_.size());
}

SessionEntry* SessionStore::find(const std::string& tenant, const std::string& instance,
                                 bool* reloaded) {
  if (reloaded != nullptr) *reloaded = false;
  const std::string key = key_of(tenant, instance);
  Shard& shard = shards_[shard_of(key)];
  const auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    it->second.stamp = ++clock_;
    return &it->second;
  }
  const auto spilled = spill_records_.find(key);
  if (spilled == spill_records_.end()) return nullptr;

  // Spill reload IO span, nesting under the service's store.lookup span.
  // Key, outcome and byte sizes are deterministic (tier placement and
  // snapshot encodings are shard-invariant); no IO timings in attributes.
  obs::Span span(obs::trace(), "spill.reload");
  span.attr("key", key);
  // Spill-tier hit: take the record out of the tier, decode its snapshot,
  // verify it really is this owner's (misplaced bytes must not impersonate
  // another tenant's instance), rebuild the entry and free the slot.
  const SpillRecord record = std::move(spilled->second);
  spill_bytes_ -= record.extent.length;
  spill_records_.erase(spilled);
  SessionEntry entry;
  bool warm = false;
  if (record.extent.length != 0) {  // a tombstone never had a slot
    // The slot is read into the store's buffer, which keeps the capacity of
    // the largest record so far: no fresh allocation per reload. Cleared
    // first, so a failure before the read quarantines nothing.
    buffer_.clear();
    try {
      if (faults_.fires(FaultPoint::kSpillRead)) {
        throw ResourceLimit("fault injection: spill read of '" + key + "' failed");
      }
      segment_.read_into(record.extent, buffer_);
      if (faults_.fires(FaultPoint::kSpillTruncate)) buffer_ = fault_truncate(std::move(buffer_));
      if (faults_.fires(FaultPoint::kSpillHashFlip)) buffer_ = fault_flip_byte(std::move(buffer_));
      SessionState state = decode_snapshot(buffer_);
      TS_REQUIRE(state.tenant == tenant && state.instance == instance,
                 "SessionStore: spilled snapshot of '" << key << "' belongs to '" << state.tenant
                                                       << '/' << state.instance << "'");
      entry = session_entry_from_state(std::move(state));
      warm = true;
    } catch (const std::exception&) {
      // Corrupt, truncated, unreadable or misowned snapshot: one bad byte
      // on disk must not fail this instance's requests forever. Quarantine
      // what was read for post-mortem, write off the warm state, and fall
      // back to the tree-only snapshot retained in the record.
      ++spill_faults_;
      count_spill_fault();
      if (!buffer_.empty()) {
        quarantine(spill_dir_ + "/" + snapshot_file_name(tenant, instance) + ".bad", buffer_);
      }
    }
    release_slot(record.extent);
  }
  if (!warm) entry = session_entry_from_state(decode_snapshot(record.fallback));
  entry.stamp = ++clock_;
  bytes_used_ += entry.bytes;
  span.attr("warm", std::uint64_t{warm ? 1u : 0u});
  if (warm) {
    // Only a snapshot that actually came back warm counts as a reload;
    // the fault paths above surface as cold/initial solves in the stats.
    ++spill_reloads_;
    obs::count("treesat_spill_reloads_total",
               "Sessions reloaded warm from the spill tier");
    if (reloaded != nullptr) *reloaded = true;
  }
  return &shard.entries.emplace(key, std::move(entry)).first->second;
}

bool SessionStore::contains(const std::string& tenant, const std::string& instance) const {
  const std::string key = key_of(tenant, instance);
  const Shard& shard = shards_[shard_of(key)];
  return shard.entries.find(key) != shard.entries.end() ||
         spill_records_.find(key) != spill_records_.end();
}

SessionEntry& SessionStore::put(const std::string& tenant, const std::string& instance,
                                CruTree tree) {
  const std::string key = key_of(tenant, instance);
  Shard& shard = shards_[shard_of(key)];
  const auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    bytes_used_ -= it->second.bytes;
    shard.entries.erase(it);
  }
  // A re-submit replaces warm state in *both* tiers: a stale spill copy
  // must never resurrect the pre-replacement instance on a later miss.
  if (spill_records_.find(key) != spill_records_.end()) {
    drop_spilled(key, /*budget_drop=*/false);
  }
  SessionEntry entry;
  entry.tenant = tenant;
  entry.instance = instance;
  entry.tree = std::make_unique<CruTree>(std::move(tree));
  entry.bytes = estimate_bytes(*entry.tree, nullptr);
  entry.stamp = ++clock_;
  bytes_used_ += entry.bytes;
  return shard.entries.emplace(key, std::move(entry)).first->second;
}

EvictFate SessionStore::evict(const std::string& tenant, const std::string& instance,
                              bool drop) {
  const std::string key = key_of(tenant, instance);
  Shard& shard = shards_[shard_of(key)];
  const auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    const bool spill = spill_enabled() && !drop;
    if (spill) spill_entry(it->second);
    bytes_used_ -= it->second.bytes;
    shard.entries.erase(it);
    if (spill) {
      enforce_spill_budget();
      // The budget sweep may have dropped the very entry we just spilled
      // (it can be the coldest file); its fate is then a drop after all.
      return spill_records_.find(key) != spill_records_.end() ? EvictFate::kSpilled
                                                              : EvictFate::kDropped;
    }
    return EvictFate::kDropped;
  }
  const auto spilled = spill_records_.find(key);
  if (spilled == spill_records_.end()) return EvictFate::kAbsent;
  if (!drop) return EvictFate::kSpilled;  // already exactly where evict puts things
  drop_spilled(key, /*budget_drop=*/false);
  return EvictFate::kDropped;
}

void SessionStore::refresh_bytes(SessionEntry& entry) {
  const std::size_t fresh = estimate_bytes(entry.current_tree(), entry.session.get());
  bytes_used_ += fresh;
  bytes_used_ -= entry.bytes;
  entry.bytes = fresh;
}

void SessionStore::spill_entry(const SessionEntry& entry) {
  obs::Span span(obs::trace(), "spill.write");
  span.attr("key", key_of(entry.tenant, entry.instance));
  if (faults_.fires(FaultPoint::kSpillDirVanish)) {
    // The spill directory disappears out from under the tier (operator
    // error, an over-eager tmp cleaner), and the segment with it. Every
    // slot written before is lost -- those reloads recover via the retained
    // tree-only snapshot -- and the next write starts a fresh segment in a
    // recreated directory.
    std::error_code ec;
    std::filesystem::remove_all(spill_dir_, ec);
    segment_.abandon();
    ++spill_faults_;
    count_spill_fault();
  }
  SpillRecord record;
  record.tenant = entry.tenant;
  record.instance = entry.instance;
  record.stamp = entry.stamp;
  // Encoded straight from the live session into the store's buffer, and
  // framed there; the fallback is framed from the same payload's prefix.
  // The bytes are deterministic for a given resolve history (caches sorted,
  // no wall clock), so the spill-tier gauges replay byte-identically at any
  // shard count. A tree-only entry's snapshot is its own fallback.
  const std::string_view bytes = encode_entry_snapshot(entry, buffer_, &record.fallback);
  try {
    if (faults_.fires(FaultPoint::kSpillWrite)) {
      throw ResourceLimit("fault injection: spill write failed");
    }
    record.extent = segment_.write(bytes);
  } catch (const std::exception&) {
    // A failed spill write must not fail the eviction that triggered it:
    // the warm state is lost (the next request re-solves cold from the
    // fallback) but the instance stays servable. The record becomes a
    // slotless tombstone.
    ++spill_faults_;
    count_spill_fault();
    record.extent = {};
  }
  const std::uint64_t charged = record.extent.length;
  span.attr("bytes", charged);
  if (charged != 0) {
    obs::observe("treesat_spill_snapshot_bytes", "Spilled snapshot sizes in bytes",
                 obs::MetricClass::kDeterministic, static_cast<double>(charged));
  }
  spill_bytes_ += charged;
  spill_records_[key_of(entry.tenant, entry.instance)] = std::move(record);
  ++spills_;
  obs::count("treesat_spills_total", "Sessions written to the spill tier");
}

void SessionStore::drop_spilled(const std::string& key, bool budget_drop) {
  const auto it = spill_records_.find(key);
  TS_CHECK(it != spill_records_.end(), "SessionStore: dropping unknown spill record " << key);
  const SegmentFile::Extent extent = it->second.extent;
  spill_bytes_ -= extent.length;
  spill_records_.erase(it);
  release_slot(extent);
  if (budget_drop) ++spill_drops_;
}

void SessionStore::release_slot(const SegmentFile::Extent& extent) {
  segment_.release(extent);
  if (!segment_.wants_compaction()) return;
  std::vector<SegmentFile::Extent*> live;
  live.reserve(spill_records_.size());
  for (auto& [key, record] : spill_records_) live.push_back(&record.extent);
  segment_.compact(live);
}

std::string SessionStore::spilled_bytes(const SpillRecord& record) const {
  try {
    return segment_.read(record.extent);
  } catch (const std::exception&) {
    return {};
  }
}

void SessionStore::enforce_spill_budget() {
  if (spill_budget_ == 0) return;
  while (spill_bytes_ > spill_budget_) {
    // Coldest spilled entry: smallest stamp, ties by (tenant, instance) --
    // the same strict total order the memory tier evicts by.
    const SpillRecord* victim = nullptr;
    std::string victim_key;
    for (const auto& [key, record] : spill_records_) {
      const bool better =
          victim == nullptr || record.stamp < victim->stamp ||
          (record.stamp == victim->stamp &&
           std::make_pair(record.tenant, record.instance) <
               std::make_pair(victim->tenant, victim->instance));
      if (better) {
        victim = &record;
        victim_key = key;
      }
    }
    if (victim == nullptr) break;
    drop_spilled(victim_key, /*budget_drop=*/true);
  }
}

std::vector<EvictedEntry> SessionStore::enforce_budget(const SessionEntry* protect) {
  std::vector<EvictedEntry> evicted;
  if (mem_budget_ == 0) return evicted;
  while (bytes_used_ > mem_budget_) {
    // Global LRU victim: smallest stamp, ties by (tenant, instance). The
    // scan is O(entries) but entries are whole warm instances -- dozens,
    // not millions -- and the strict total order is what keeps eviction
    // byte-identical across shard counts.
    Shard* victim_shard = nullptr;
    const SessionEntry* victim = nullptr;
    std::string victim_key;
    for (Shard& shard : shards_) {
      for (const auto& [key, entry] : shard.entries) {
        if (&entry == protect) continue;
        const bool better =
            victim == nullptr || entry.stamp < victim->stamp ||
            (entry.stamp == victim->stamp &&
             std::make_pair(entry.tenant, entry.instance) <
                 std::make_pair(victim->tenant, victim->instance));
        if (better) {
          victim_shard = &shard;
          victim = &entry;
          victim_key = key;
        }
      }
    }
    if (victim == nullptr) break;  // only the protected entry is resident
    const bool spill = spill_enabled();
    if (spill) spill_entry(*victim);
    evicted.push_back({victim->tenant, victim->instance, victim->bytes, spill});
    bytes_used_ -= victim->bytes;
    victim_shard->entries.erase(victim_key);
    ++lru_evictions_;
  }
  enforce_spill_budget();
  return evicted;
}

std::size_t SessionStore::estimate_bytes(const CruTree& tree, const ResolveSession* session) {
  // Structural footprint: node records plus the derived index arrays
  // (preorder/postorder/leaf spans/depths), all linear in the node count.
  std::size_t bytes = 512 + tree.size() * 160;
  if (session != nullptr) {
    bytes += 256 + session->cached_bytes();
  }
  return bytes;
}

std::size_t SessionStore::entries() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) n += shard.entries.size();
  return n;
}

std::size_t SessionStore::sessions() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    for (const auto& [key, entry] : shard.entries) {
      if (entry.session != nullptr) ++n;
    }
  }
  return n;
}

void SessionStore::restore_counters(std::size_t lru_evictions, std::size_t spills,
                                    std::size_t spill_reloads, std::size_t spill_drops,
                                    std::size_t spill_faults, std::size_t restore_faults) {
  lru_evictions_ = lru_evictions;
  spills_ = spills;
  spill_reloads_ = spill_reloads;
  spill_drops_ = spill_drops;
  spill_faults_ = spill_faults;
  restore_faults_ = restore_faults;
}

SessionEntry& SessionStore::restore_entry(SessionEntry entry, std::uint64_t stamp) {
  const std::string key = key_of(entry.tenant, entry.instance);
  TS_REQUIRE(!contains(entry.tenant, entry.instance),
             "SessionStore: restore of an already-present entry " << key);
  entry.stamp = stamp;
  bytes_used_ += entry.bytes;
  Shard& shard = shards_[shard_of(key)];
  return shard.entries.emplace(key, std::move(entry)).first->second;
}

void SessionStore::restore_spilled(const std::string& tenant, const std::string& instance,
                                   std::uint64_t stamp, std::string_view bytes,
                                   std::string fallback) {
  TS_REQUIRE(spill_enabled(),
             "SessionStore: cannot restore a spilled entry without a spill_dir");
  const std::string key = key_of(tenant, instance);
  TS_REQUIRE(!contains(tenant, instance),
             "SessionStore: restore of an already-present spilled entry " << key);
  TS_REQUIRE(!fallback.empty(), "SessionStore: restored spilled entry " << key
                                                                       << " has no fallback");
  SpillRecord record;
  record.tenant = tenant;
  record.instance = instance;
  record.extent = segment_.write(bytes);
  record.stamp = stamp;
  record.fallback = std::move(fallback);
  spill_bytes_ += record.extent.length;
  spill_records_[key] = std::move(record);
}

std::vector<const SessionEntry*> SessionStore::resident_by_key() const {
  std::vector<const SessionEntry*> out;
  for (const Shard& shard : shards_) {
    for (const auto& [key, entry] : shard.entries) out.push_back(&entry);
  }
  std::sort(out.begin(), out.end(), [](const SessionEntry* a, const SessionEntry* b) {
    return std::make_pair(a->tenant, a->instance) < std::make_pair(b->tenant, b->instance);
  });
  return out;
}

}  // namespace treesat
