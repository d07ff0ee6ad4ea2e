#include "storage/segment.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <filesystem>
#include <system_error>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace treesat {

namespace {

/// pwrite()s all of `bytes` at `offset`; false on an IO error.
bool write_at(int fd, std::string_view bytes, std::uint64_t offset) {
  while (!bytes.empty()) {
    const ssize_t n = ::pwrite(fd, bytes.data(), bytes.size(), static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

/// pread()s up to `out.size()` bytes at `offset`, shrinking `out` when the
/// file ends first; false on an IO error.
bool read_at(int fd, std::string& out, std::uint64_t offset) {
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n =
        ::pread(fd, out.data() + got, out.size() - got, static_cast<off_t>(offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  out.resize(got);
  return true;
}

}  // namespace

SegmentFile::SegmentFile(std::string dir) : dir_(std::move(dir)) {}

SegmentFile::SegmentFile(SegmentFile&& other) noexcept
    : dir_(std::move(other.dir_)),
      path_(std::exchange(other.path_, {})),
      fd_(std::exchange(other.fd_, -1)),
      epoch_(other.epoch_),
      size_(std::exchange(other.size_, 0)),
      live_(std::exchange(other.live_, 0)),
      free_(std::exchange(other.free_, {})) {}

SegmentFile& SegmentFile::operator=(SegmentFile&& other) noexcept {
  if (this != &other) {
    close_and_unlink();
    dir_ = std::move(other.dir_);
    path_ = std::exchange(other.path_, {});
    fd_ = std::exchange(other.fd_, -1);
    epoch_ = other.epoch_;
    size_ = std::exchange(other.size_, 0);
    live_ = std::exchange(other.live_, 0);
    free_ = std::exchange(other.free_, {});
  }
  return *this;
}

SegmentFile::~SegmentFile() { close_and_unlink(); }

void SegmentFile::close_and_unlink() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(path_.c_str());
    fd_ = -1;
  }
  path_.clear();
}

void SegmentFile::open() {
  TS_CHECK(!dir_.empty(), "SegmentFile: write to a segment without a directory");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // first write, or a vanished directory
  // The pid keeps processes apart, the counter keeps one process's stores
  // apart, and O_EXCL settles a name left behind by a dead process.
  static std::atomic<std::uint64_t> counter{0};
  int error = 0;
  for (int attempt = 0; attempt < 16; ++attempt) {
    std::string path = dir_;
    path += "/spill.";
    path += std::to_string(::getpid());
    path += '.';
    path += std::to_string(counter.fetch_add(1));
    path += ".seg";
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (fd >= 0) {
      fd_ = fd;
      path_ = std::move(path);
      return;
    }
    error = errno;
    if (error != EEXIST) break;
  }
  std::string message = "storage: cannot create a segment in '";
  message += dir_;
  message += "': ";
  message += std::generic_category().message(error);
  throw ResourceLimit(message);
}

SegmentFile::Extent SegmentFile::write(std::string_view bytes) {
  const std::uint64_t length = bytes.size();
  if (length == 0) return Extent{0, 0, epoch_};
  if (fd_ < 0) open();
  // First fit; else the tail hole, which the write extends the file from;
  // else an append. The slot is claimed only once the write landed.
  auto slot = std::find_if(free_.begin(), free_.end(),
                           [&](const auto& hole) { return hole.second >= length; });
  if (slot == free_.end() && !free_.empty()) {
    const auto tail = std::prev(free_.end());
    if (tail->first + tail->second == size_) slot = tail;
  }
  const std::uint64_t offset = slot != free_.end() ? slot->first : size_;
  if (!write_at(fd_, bytes, offset)) {
    throw ResourceLimit("storage: cannot write " + path_);
  }
  if (slot != free_.end()) {
    const auto [hole_offset, hole_length] = *slot;
    free_.erase(slot);
    if (hole_length > length) free_.emplace(hole_offset + length, hole_length - length);
  }
  size_ = std::max(size_, offset + length);
  live_ += length;
  return Extent{offset, length, epoch_};
}

bool SegmentFile::holds(const Extent& extent) const {
  return fd_ >= 0 && extent.length != 0 && extent.epoch == epoch_;
}

std::string SegmentFile::read(const Extent& extent) const {
  if (!holds(extent)) throw ResourceLimit("storage: the segment no longer holds this record");
  std::string bytes(extent.length, '\0');
  if (!read_at(fd_, bytes, extent.offset)) {
    throw ResourceLimit("storage: cannot read " + path_);
  }
  return bytes;
}

void SegmentFile::release(const Extent& extent) {
  if (!holds(extent)) return;
  live_ -= extent.length;
  free_range(extent.offset, extent.length);
}

void SegmentFile::free_range(std::uint64_t offset, std::uint64_t length) {
  auto next = free_.lower_bound(offset);
  if (next != free_.end() && offset + length == next->first) {
    length += next->second;
    next = free_.erase(next);
  }
  if (next != free_.begin()) {
    const auto prev = std::prev(next);
    if (prev->first + prev->second == offset) {
      prev->second += length;
      return;
    }
  }
  free_.emplace_hint(next, offset, length);
}

void SegmentFile::compact(std::span<Extent* const> live) {
  std::vector<Extent*> order;
  std::uint64_t total = 0;
  for (Extent* extent : live) {
    if (!holds(*extent)) continue;
    order.push_back(extent);
    total += extent->length;
  }
  TS_CHECK(total == live_, "SegmentFile: compaction was given " << total << " of " << live_
                                                                << " live bytes");
  std::sort(order.begin(), order.end(),
            [](const Extent* a, const Extent* b) { return a->offset < b->offset; });
  std::uint64_t cursor = 0;
  std::string buffer;
  for (Extent* extent : order) {
    if (extent->offset != cursor) {
      // Read whole before writing: the destination may overlap the source.
      buffer.resize(extent->length);
      if (!read_at(fd_, buffer, extent->offset) || buffer.size() != extent->length ||
          !write_at(fd_, buffer, cursor)) {
        break;
      }
      extent->offset = cursor;
    }
    cursor += extent->length;
  }
  // The free list is whatever gaps an interrupted pass left, then the tail.
  free_.clear();
  std::uint64_t end = 0;
  for (const Extent* extent : order) {
    if (extent->offset > end) free_.emplace(end, extent->offset - end);
    end = extent->offset + extent->length;
  }
  if (end < size_ && ::ftruncate(fd_, static_cast<off_t>(end)) == 0) size_ = end;
  if (end < size_) free_.emplace(end, size_ - end);
}

void SegmentFile::abandon() {
  close_and_unlink();
  ++epoch_;
  size_ = 0;
  live_ = 0;
  free_.clear();
}

}  // namespace treesat
