// Versioned, content-keyed on-disk snapshots of ResolveSessions -- the
// storage subsystem's bottom layer (ROADMAP: "Persistent session snapshots
// and tiered warm storage").
//
// A snapshot file is a short self-describing header followed by an exact
// byte-counted, content-hashed payload:
//
//   treesat_snapshot v3\n
//   bytes <payload byte count>\n
//   hash <16 lowercase hex digits of the payload's hash>\n
//   <payload: exactly `bytes` bytes>
//
// The hash is FNV-1a 64 over the payload read as little-endian 64-bit
// words, the tail zero-padded into a last word and the byte length mixed
// in after it (common/hash.hpp) -- one multiply per eight bytes.
//
// The payload is binary and little-endian: counts and lengths are u32,
// strings are a u32 length then their bytes, costs and frontier points are
// raw IEEE-754 doubles. Its sections, in order:
//
//   owner        tenant and instance strings
//   node table   u32 node count, then per node in id order: u32 parent
//                (0xFFFFFFFF for the root), u8 kind (0 compute, 1 sensor),
//                u32 satellite (0xFFFFFFFF on compute nodes), f64 host_time,
//                sat_time and comm_up, and the name
//   plan spec    string; empty marks a tree-only state, which ends here
//   cut          u32 count, then u32 node ids
//   report       method and requested-method names, u8 exact, f64 objective
//   dp_stats     u8 present, then eight u64 counters when present
//   stats        resolve path name, seven u64 counters, u8 incumbent_used
//   cold_reason  string
//   colour cache u32 entries; each: u32 key words + u64 words, u32 points +
//                f64 load[points] + f64 host[points], u32 width R +
//                u32 region_index[points * R]
//   region cache u32 entries; each: key words and points as above, then
//                u32 cut_offsets[points + 1], u32 position count + u32
//                cut_positions[count]
//
// A cache entry carries exactly FrontierEntry's arrays (core/pareto_dp.hpp):
// a region entry its points' region-local cuts, a colour entry per point
// the index it took in each of its key's R regions' frontiers. Content keys
// travel verbatim: a rolled-back resolve leaves its insertions in the
// cache, and the current tree cannot derive their keys. Neither entry
// stamps nor the session's attempt clock are persisted: a restored session
// marks every entry as older than its next attempt.
//
// One encoder writes every snapshot. It reads a SnapshotSource: views of
// the owner, the tree, the report's fields, the stats and both caches'
// entries. A SessionState fills one (encode_snapshot(const SessionState&),
// what perfbench's codec probe and the tests call), and so does a live
// session (snapshot_source()), which is how the spill tier and checkpoints
// encode: the caches are read where the session keeps them, never copied
// into a state first. The live path writes the payload into a caller's
// reused buffer after a gap and frames it in place, and it frames the
// tree-only fallback from the same payload's owner-and-node-table prefix
// plus an empty plan spec instead of encoding the tree again; a restore
// derives it from a spilled snapshot's verified prefix alone.
//
// Every value is written once as raw bytes and read back once with memcpy,
// so a decoded snapshot rebuilds the session bit for bit, and the node
// table builds the tree once, through CruTreeBuilder. The sorted entry order
// comes from ResolveSession::cache_entries(), which sorts the caches'
// entries by key words for both export_state() and snapshot_source(); with
// no wall-clock field written, snapshot bytes are a pure function of the
// resolve history: snapshotting the same session twice, through either
// source, yields identical bytes, and the serving tier can treat snapshot
// sizes as deterministic gauges. A SessionState's entries are encoded in the
// order it holds them.
//
// The parser is strict and loud: an empty file, foreign magic, unsupported
// version (v1 and v2 files are rejected by their version line), malformed
// header field, truncated or over-long payload, content hash mismatch, or
// any structurally impossible payload (a count past the bytes left, a node
// table whose shape, kinds or costs tree_from_text would refuse, a cut node
// outside the tree, unknown method or path names, flags other than 0 or 1,
// trailing bytes) throws InvalidArgument with a distinct "snapshot:" or
// "storage:" message. IO failures (unreadable/unwritable paths) throw
// ResourceLimit. Nothing is ever half-decoded: decode either returns a
// fully validated SessionState or throws; import_state() then checks the
// plan and the caches.
//
// File writes are atomic: the file is staged at `<path>.tmp` and renamed
// over the destination, so a crash mid-write can never leave a torn
// snapshot or manifest where a reader expects a good one. Checkpoints are
// the only writer that needs this; the spill tier keeps its snapshots in
// one segment file per store (storage/segment.hpp) and relies on the hash.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/incremental.hpp"

namespace treesat {

/// Percent-encodes `raw` so the result only contains [A-Za-z0-9_.-%]:
/// every other byte becomes %XX (uppercase hex), '%' itself is always
/// encoded, and the empty string encodes as the single byte "%" (which no
/// non-empty encoding can produce). Injective and filesystem-safe -- used
/// for snapshot file names, which are derived from an owner and never
/// decoded.
[[nodiscard]] std::string encode_token(const std::string& raw);

/// Canonical file name for an owned session's snapshot: a checkpoint's
/// `sessions/` and `spilled/` files, and (plus `.bad`) the spill tier's
/// quarantine copy of a damaged snapshot.
/// `<encode_token(tenant)>@<encode_token(instance)>.tss`. '@' is outside
/// the token alphabet, so the mapping is collision-free.
[[nodiscard]] std::string snapshot_file_name(const std::string& tenant,
                                             const std::string& instance);

/// Frames `payload` with the versioned header shown above: `<magic>
/// <version>\n bytes <N>\n hash <fnv1a_bytes>\n` + payload. Shared by session
/// snapshots and checkpoint manifests (storage/checkpoint.hpp).
[[nodiscard]] std::string frame_payload(std::string_view magic, std::string_view version,
                                        std::string_view payload);

/// Strict inverse of frame_payload(): verifies magic, version, byte count
/// and content hash, then returns a view of the payload. `what` names the
/// format in error messages ("snapshot", "checkpoint").
[[nodiscard]] std::string_view unframe_payload(std::string_view magic,
                                               std::string_view version,
                                               std::string_view bytes, const char* what);

/// unframe_payload() of a session snapshot: the payload of `bytes` once
/// their header, byte count and content hash check out.
[[nodiscard]] std::string_view snapshot_payload(std::string_view bytes);

/// Whole-file read; throws ResourceLimit when `path` cannot be opened.
[[nodiscard]] std::string read_file_bytes(const std::string& path);

/// Writes `bytes` to `<path>.tmp` and atomically renames onto `path` (the
/// checkpoint writer's files); throws ResourceLimit on any IO failure.
void write_file_atomic(const std::string& path, std::string_view bytes);

/// What one snapshot carries, by reference: the one source the encoder
/// reads. A SessionState fills it (encode_snapshot(const SessionState&)),
/// and so does a live session (snapshot_source()), whose caches are then
/// encoded where they lie instead of being copied into a state first.
/// Every view must outlive the encode.
struct SnapshotSource {
  std::string_view tenant;
  std::string_view instance;
  const CruTree* tree = nullptr;
  std::string plan_spec;  ///< empty: a tree-only snapshot, which ends after it
  std::span<const CruId> cut;
  double objective_value = 0.0;
  bool exact = false;
  SolveMethod method = SolveMethod::kParetoDp;
  SolveMethod requested = SolveMethod::kParetoDp;
  const ParetoDpStats* dp_stats = nullptr;  ///< null when the report has none
  const ResolveStats* stats = nullptr;      ///< required unless tree-only
  std::vector<CacheEntryView> colour_cache;  ///< encoded in this order
  std::vector<CacheEntryView> region_cache;
};

/// A live session as a snapshot source: the fields export_state() copies,
/// by reference, and its caches in export_state()'s sorted key order
/// (ResolveSession::cache_entries). The owner is left for the caller.
[[nodiscard]] SnapshotSource snapshot_source(const ResolveSession& session);

/// Encodes `source` into `buffer` -- replacing its contents, keeping its
/// capacity -- and returns the snapshot's bytes, a view into `buffer` valid
/// until it next changes. The payload is written after a gap the header is
/// then framed into, so nothing is copied. When `fallback` is non-null it
/// receives the tree-only snapshot of the same owner and tree, framed from
/// the payload's owner-and-node-table prefix plus an empty plan spec: the
/// tree is not encoded twice.
[[nodiscard]] std::string_view encode_snapshot(const SnapshotSource& source,
                                               std::string& buffer,
                                               std::string* fallback = nullptr);

/// Full snapshot bytes (header + payload) for a session state.
[[nodiscard]] std::string encode_snapshot(const SessionState& state);

/// Strict inverse of encode_snapshot() over a whole file's bytes.
[[nodiscard]] SessionState decode_snapshot(std::string_view bytes);

/// The tree-only state of a snapshot's owner and node table, checked as
/// decode_snapshot() checks them and the frame; `fallback` receives its
/// bytes, framed from that prefix. The rest of the payload is not read.
[[nodiscard]] SessionState decode_snapshot_prefix(std::string_view bytes, std::string& fallback);

/// encode_snapshot() to `<path>.tmp`, then atomically renames onto `path`.
/// Throws ResourceLimit when the directory is missing or unwritable.
void write_snapshot_file(const std::string& path, const SessionState& state);

/// Reads and decode_snapshot()s `path`. Throws ResourceLimit when the file
/// cannot be opened, InvalidArgument when its contents are not a valid v3
/// snapshot (v1 and v2 files are rejected by their version line).
[[nodiscard]] SessionState read_snapshot_file(const std::string& path);

}  // namespace treesat
