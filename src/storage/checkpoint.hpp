// Whole-service checkpoint/restore -- the storage subsystem's top layer.
//
// A checkpoint is a directory:
//
//   <dir>/MANIFEST.tsc     versioned manifest (same framed header and
//                          word-wise FNV-1a 64 content hash as
//                          storage/snapshot.hpp; v4, binary -- v1 to v3
//                          manifests are rejected by their version line)
//   <dir>/sessions/*.tss   one snapshot per memory-resident entry
//   <dir>/spilled/*.tss    the spill tier's snapshots, copied verbatim out
//                          of the store's segment file
//
// The manifest records everything a restarted process needs to answer its
// first warm request without re-solving and with byte-identical responses.
// Its payload is written by the snapshot codec (storage/wire.hpp): u64
// values, u32 counts, strings as a u32 length then their bytes. In order:
//
//   next_id, the store's LRU clock     u64 each
//   store counters                     six u64: lru_evictions, spills,
//                                      spill_reloads, spill_drops,
//                                      spill_faults, restore_faults
//   service counters                   two u64: requests, errors
//   resident rows, spilled rows        each a count, then per row tenant,
//                                      instance, u64 stamp, u64 bytes
//   tenant rows                        a count, then per row the name, the
//                                      kTenantCounters values (u64) and the
//                                      method counts (a count, then u64s)
//   overflow row                       a tenant row without a name
//
// Tier placement is preserved (a spilled session restores spilled, so
// store gauges replay exactly). A row's bytes are its snapshot file's size
// (spilled) or its rebuilt entry's byte estimate (resident).
//
// The manifest is written last (atomically), so a directory with a valid
// manifest is a complete checkpoint; a crash mid-checkpoint leaves a
// manifest-less directory that restore rejects loudly. Once the manifest
// is in place, the `.tss` and `.tss.tmp` files under sessions/ and spilled/
// that it does not list are removed, so a directory checkpointed into
// periodically holds only its last checkpoint; no other file is touched.
// Restore validates a resident snapshot whole and a spilled one up to its
// node table: frame, owner and size against the manifest row. The reload
// that adopts a spilled snapshot decodes the rest, and a failure there is a
// damaged slot like a live one (quarantined, spill_faults, answered cold).
// A snapshot failing at restore is skipped and counted (restore_faults), so
// a restart always comes up, possibly colder. Only a damaged *manifest* is
// fatal: without it nothing about the checkpoint can be trusted. Its reader
// is the snapshot decoder's: every count is bounded by the bytes left, and
// the payload must end exactly after the overflow row.
#pragma once

#include <cstddef>
#include <string>

#include "service/session_store.hpp"
#include "service/telemetry.hpp"

namespace treesat {

/// Writes a complete checkpoint of the store + telemetry under `dir`
/// (created if missing). `next_id` is the service's request-id high-water
/// mark. Throws ResourceLimit on IO failure; the store is not modified.
void write_checkpoint(const std::string& dir, const SessionStore& store,
                      const ServiceTelemetry& telemetry, std::size_t next_id);

/// A restored service core: the store (sessions warm, tiers as
/// checkpointed), the telemetry counters, and the request-id
/// high-water mark.
struct RestoredService {
  SessionStore store;
  ServiceTelemetry telemetry;
  std::size_t next_id = 0;
};

/// Rebuilds a service core from a checkpoint directory. The store is
/// created with the *restoring* service's configuration (`shards`,
/// `mem_budget`, `spill_dir`, `spill_budget` -- shard count is
/// behavior-invariant, budgets are deployment config); clock, stamps and
/// counters come from the manifest. A checkpoint holding spilled sessions
/// requires a configured spill_dir: their bytes are appended to the new
/// store's own segment file there, so a restore that fails leaves the
/// live store's spilled sessions as they were.
/// Damaged individual snapshots are skipped and counted into the store's
/// restore_faults(), on top of the manifest's count; `faults`, when
/// non-null, additionally injects kRestoreRead failures per manifest row
/// and its trial counters advance in place. Throws InvalidArgument on a
/// corrupt/foreign/incomplete *manifest*, ResourceLimit on IO failure
/// reading it.
[[nodiscard]] RestoredService read_checkpoint(const std::string& dir, std::size_t shards,
                                              std::size_t mem_budget,
                                              const std::string& spill_dir,
                                              std::size_t spill_budget,
                                              FaultPlan* faults = nullptr);

}  // namespace treesat
