// One file of variable-length records addressed by (offset, length) -- the
// spill tier's storage (service/session_store.hpp).
//
// A segment is a plain file in a directory. A write pwrite()s its bytes into
// a free slot and returns the slot's extent; a read pread()s an extent back;
// a release returns the slot to an in-memory free list of (offset, length)
// extents, which coalesce with their neighbours. Allocation is first fit,
// falling back to the hole at the file's tail, then to an append. No record
// creates, renames or unlinks a file: the segment is created on its first
// write and unlinked when the owner is destroyed. Nothing is mmap()ed
// (touched pages would count as the process's memory) and nothing is
// fsync()ed: the spill tier is a cache, and a lost or damaged record
// degrades to a cold re-solve.
//
// Dead bytes are the file's bytes no live extent holds. The owner compacts
// the file when they exceed the live bytes (wants_compaction()), so a
// segment stays within twice its live bytes: compact() slides every live
// extent to the front in offset order, updating each in place, and
// truncates the file.
//
// Each segment gets a file name no other live segment uses -- the process
// id plus a process-wide counter, claimed with O_EXCL -- so two stores that
// share a spill directory (a checkpoint restore builds the new store while
// the old one still serves) never touch each other's bytes. A moved-from
// segment owns no file.
//
// abandon() models the directory vanishing: the file is gone, every extent
// written before reads as lost, and the next write starts a fresh file.
// Extents carry the epoch they were written in, so a lost extent is known
// by its epoch rather than by a flag on every record.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>

namespace treesat {

class SegmentFile {
 public:
  /// Where one record's bytes sit. A zero length holds nothing.
  struct Extent {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint64_t epoch = 0;  ///< abandon() count when written
  };

  /// A segment that owns nothing and cannot be written.
  SegmentFile() = default;
  /// A segment in `dir`. The file is created (and `dir` with it) by the
  /// first write.
  explicit SegmentFile(std::string dir);
  SegmentFile(SegmentFile&& other) noexcept;
  SegmentFile& operator=(SegmentFile&& other) noexcept;
  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;
  /// Closes and unlinks the file.
  ~SegmentFile();

  /// Writes `bytes` into a free slot. Throws ResourceLimit when the file
  /// cannot be created or written; nothing is allocated then.
  [[nodiscard]] Extent write(std::string_view bytes);
  /// The extent's bytes, short when the file ends inside it. Throws
  /// ResourceLimit on an IO error or for a lost extent.
  [[nodiscard]] std::string read(const Extent& extent) const;
  /// read() into `out`, replacing its contents but keeping its capacity, so
  /// a caller that reads record after record allocates once. `out` is left
  /// empty when this throws.
  void read_into(const Extent& extent, std::string& out) const;
  /// True when the extent's bytes are in this segment's current file.
  [[nodiscard]] bool holds(const Extent& extent) const;
  /// Returns a held extent's slot to the free list; others are ignored.
  void release(const Extent& extent);

  /// True when dead bytes exceed live bytes.
  [[nodiscard]] bool wants_compaction() const { return size_ - live_ > live_; }
  /// Moves the held extents among `live` -- which must be every extent this
  /// segment holds -- to the front of the file in offset order, updating
  /// their offsets, and truncates the file after them. An IO error stops
  /// the moves; every extent stays valid where it is.
  void compact(std::span<Extent* const> live);

  /// The file is gone: every extent written so far is lost, and the next
  /// write creates a new file.
  void abandon();

  /// The file's path; empty before the first write.
  [[nodiscard]] const std::string& path() const { return path_; }
  /// Bytes the held extents cover.
  [[nodiscard]] std::uint64_t live_bytes() const { return live_; }
  /// The file's length as this segment wrote it.
  [[nodiscard]] std::uint64_t file_bytes() const { return size_; }

 private:
  void open();
  void close_and_unlink();
  void free_range(std::uint64_t offset, std::uint64_t length);

  std::string dir_;
  std::string path_;
  int fd_ = -1;
  std::uint64_t epoch_ = 0;
  std::uint64_t size_ = 0;
  std::uint64_t live_ = 0;
  std::map<std::uint64_t, std::uint64_t> free_;  ///< offset -> length, disjoint, none adjacent
};

}  // namespace treesat
