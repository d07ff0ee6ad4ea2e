// Versioned, content-keyed on-disk snapshots of ResolveSessions -- the
// storage subsystem's bottom layer (ROADMAP: "Persistent session snapshots
// and tiered warm storage").
//
// A snapshot file is a short self-describing header followed by an exact
// byte-counted, content-hashed payload:
//
//   treesat_snapshot v2\n
//   bytes <payload byte count>\n
//   hash <16 lowercase hex digits of FNV-1a 64 over the payload>\n
//   <payload: exactly `bytes` bytes>
//
// The payload is line-based text: the owner, the tree (its v1 text), and
// for a solved session the plan, the optimum's cut, the report, the stats
// and the two frontier caches, then `end`. A cache section is
//
//   colour_cache <entries>\n            region_cache <entries>\n
//   entry <n> <n key words> <points>\n  entry <n> <n key words> <points>\n
//   point <load> <host> <R indices>\n   point <load> <host> <k> <k cut deltas>\n
//
// A region point carries its cut: region-local canonical positions, first
// absolute, then gaps. A colour point carries no cut, only the index it
// took in each of its key's R regions' frontiers; the decoder requires
// every point of an entry to carry the same R. Neither entry stamps nor the
// session's attempt clock are persisted: a restored session marks every
// entry as older than its next attempt.
//
// Human-facing scalars (the objective, the embedded tree text) use the
// shared shortest-round-trip double formatter (common/format.hpp);
// frontier-point coordinates -- the bulk of a warm snapshot's bytes -- are
// IEEE-754 bit patterns in hex, exact by construction and an order of
// magnitude faster to reparse, which is what keeps restoring a snapshot
// cheaper than re-solving it. Either way a decoded snapshot rebuilds the
// session bit for bit -- the same round-trip contract the v1 tree format
// (tree/serialize.hpp) relies on. Because export_state() zeroes wall-clock
// fields and emits cache entries in sorted key order, snapshot bytes are a
// pure function of the resolve history: snapshotting the same session
// twice yields identical files, and the serving tier can treat snapshot
// sizes as deterministic gauges.
//
// The parser is strict and loud: an empty file, foreign magic, unsupported
// version, malformed header field, truncated or over-long payload, content
// hash mismatch, or any structurally impossible payload (bad counts, cut
// positions outside the encoded tree, unknown enum names, trailing bytes)
// throws InvalidArgument with a distinct "snapshot:" message. IO failures
// (unreadable/unwritable paths) throw ResourceLimit. Nothing is ever
// half-decoded: decode either returns a fully validated SessionState or
// throws.
//
// Writes are atomic: the file is staged at `<path>.tmp` and renamed over
// the destination, so a crash mid-write can never leave a torn snapshot
// where a reader expects a good one.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/incremental.hpp"

namespace treesat {

/// FNV-1a 64-bit over raw bytes -- the snapshot content hash. Offset basis
/// and prime match the other FNV users in the tree (stable across
/// platforms, unlike std::hash).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

/// Percent-encodes `raw` so the result only contains [A-Za-z0-9_.-%]:
/// every other byte becomes %XX (uppercase hex), '%' itself is always
/// encoded, and the empty string encodes as the single byte "%" (which no
/// non-empty encoding can produce). Injective, filesystem- and
/// whitespace-safe -- used for owner fields inside snapshots and for spill
/// file names.
[[nodiscard]] std::string encode_token(const std::string& raw);

/// Inverse of encode_token(); throws InvalidArgument on malformed input.
[[nodiscard]] std::string decode_token(const std::string& encoded);

/// Canonical spill/checkpoint file name for an owned session:
/// `<encode_token(tenant)>@<encode_token(instance)>.tss`. '@' is outside
/// the token alphabet, so the mapping is collision-free.
[[nodiscard]] std::string snapshot_file_name(const std::string& tenant,
                                             const std::string& instance);

/// Frames `payload` with the versioned header shown above: `<magic>
/// <version>\n bytes <N>\n hash <fnv1a64>\n` + payload. Shared by session
/// snapshots and checkpoint manifests (storage/checkpoint.hpp).
[[nodiscard]] std::string frame_payload(std::string_view magic, std::string_view version,
                                        std::string_view payload);

/// Strict inverse of frame_payload(): verifies magic, version, byte count
/// and content hash, then returns a view of the payload. `what` names the
/// format in error messages ("snapshot", "checkpoint").
[[nodiscard]] std::string_view unframe_payload(std::string_view magic,
                                               std::string_view version,
                                               std::string_view bytes, const char* what);

/// Whole-file read; throws ResourceLimit when `path` cannot be opened.
[[nodiscard]] std::string read_file_bytes(const std::string& path);

/// Writes `bytes` to `<path>.tmp` and atomically renames onto `path`;
/// throws ResourceLimit on any IO failure.
void write_file_atomic(const std::string& path, std::string_view bytes);

/// Full snapshot bytes (header + payload) for a session state.
[[nodiscard]] std::string encode_snapshot(const SessionState& state);

/// Strict inverse of encode_snapshot() over a whole file's bytes.
[[nodiscard]] SessionState decode_snapshot(std::string_view bytes);

/// encode_snapshot() to `<path>.tmp`, then atomically renames onto `path`.
/// Throws ResourceLimit when the directory is missing or unwritable.
void write_snapshot_file(const std::string& path, const SessionState& state);

/// Reads and decode_snapshot()s `path`. Throws ResourceLimit when the file
/// cannot be opened, InvalidArgument when its contents are not a valid v2
/// snapshot (a v1 file is rejected by its version line).
[[nodiscard]] SessionState read_snapshot_file(const std::string& path);

}  // namespace treesat
