// Whole-service checkpoint/restore -- the storage subsystem's top layer.
//
// A checkpoint is a directory:
//
//   <dir>/MANIFEST.tsc     versioned manifest (same framed header and
//                          word-wise FNV-1a 64 content hash as
//                          storage/snapshot.hpp; v3, the version that
//                          records v3 snapshots' byte sizes -- v1 and v2
//                          manifests are rejected by their version line)
//   <dir>/sessions/*.tss   one snapshot per memory-resident entry
//   <dir>/spilled/*.tss    the spill tier's snapshots, copied verbatim out
//                          of the store's segment file
//
// The manifest records everything a restarted process needs to answer its
// first warm request without re-solving and with byte-identical responses:
// the next request id, the store's global LRU clock and lifetime counters,
// every entry's owner + stamp + byte estimate (tier placement preserved --
// a spilled session restores spilled, so store gauges replay exactly), and
// the service telemetry's counters (per-tenant rows in kTenantCounters
// order, the overflow aggregate, request/error totals).
//
// The manifest is written last (atomically), so a directory with a valid
// manifest is a complete checkpoint; a crash mid-checkpoint leaves a
// manifest-less directory that restore rejects loudly. Restore validates
// every snapshot (framed hash + strict payload parse + owner match against
// the manifest row, plus the rebuilt entry's recomputed byte estimate
// against the manifest's) -- but a snapshot that fails validation is
// skipped and counted (the store's restore_faults counter) rather than
// failing the restart: a restart must always come up, possibly colder.
// Only a damaged *manifest* is fatal -- without it nothing about the
// checkpoint can be trusted.
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
