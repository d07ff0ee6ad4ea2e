// Strict parsing shared by the storage formats. Everything here rejects
// rather than guesses: a field either parses exactly or throws
// InvalidArgument with a "storage:" message naming what was malformed --
// the loud-failure half of the snapshot contract (storage/snapshot.hpp).
//
// Two halves: decimal and hex fields for the three text lines that frame
// every file (storage/snapshot.hpp), and little-endian binary values and
// raw blocks for every payload, snapshots and checkpoint manifests alike.
// Binary values are read with memcpy only (payload offsets are unaligned),
// and every count that sizes storage is bounded by the bytes left before
// anything is allocated.
#pragma once

#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace treesat::wire {

static_assert(std::endian::native == std::endian::little,
              "the binary storage formats are little-endian");

/// Strict decimal parse (common/parse.hpp) with the storage message.
inline std::uint64_t parse_u64(std::string_view tok, const char* what) {
  TS_REQUIRE(!tok.empty(), "storage: empty " << what);
  const std::optional<std::uint64_t> value = treesat::parse_u64(tok);
  TS_REQUIRE(value.has_value(),
             "storage: " << what << " '" << tok << "' is not a number or overflows");
  return *value;
}

/// Strict lowercase-hex parse (1..16 digits).
inline std::uint64_t parse_hex64(std::string_view tok, const char* what) {
  TS_REQUIRE(!tok.empty() && tok.size() <= 16, "storage: malformed " << what);
  std::uint64_t value = 0;
  for (const char c : tok) {
    const bool digit = c >= '0' && c <= '9';
    const bool lower = c >= 'a' && c <= 'f';
    TS_REQUIRE(digit || lower, "storage: " << what << " '" << tok << "' is not lowercase hex");
    value = (value << 4) |
            static_cast<std::uint64_t>(digit ? c - '0' : c - 'a' + 10);
  }
  return value;
}

/// A count a decoder is about to size storage by, checked against the
/// bytes left to decode: every counted item takes at least `min_bytes` of
/// them, so a count the rest of the input cannot hold is corrupt and is
/// rejected before it reaches an allocation.
inline std::size_t bounded_count(std::uint64_t count, std::size_t bytes_left,
                                 std::size_t min_bytes, const char* what) {
  TS_REQUIRE(count <= bytes_left / min_bytes,
             "storage: " << what << " " << count << " exceeds what the remaining "
                         << bytes_left << " bytes can hold");
  return static_cast<std::size_t>(count);
}

/// Appends `v` in decimal (the form parse_u64 reads back).
inline void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// Appends `v` as exactly 16 lowercase hex digits, zero-padded.
inline void append_hex16(std::string& out, std::uint64_t v) {
  char buf[16];
  const char* const last = std::to_chars(buf, buf + sizeof(buf), v, 16).ptr;
  const std::size_t digits = static_cast<std::size_t>(last - buf);
  out.append(sizeof(buf) - digits, '0');
  out.append(buf, digits);
}

/// append_hex16 into a fresh string (hashes in messages and digests).
inline std::string hex16(std::uint64_t v) {
  std::string out;
  append_hex16(out, v);
  return out;
}

// --- binary ---------------------------------------------------------------

/// Appends the raw bytes of one fixed-width value.
template <typename T>
inline void put(std::string& out, T value) {
  static_assert(std::is_arithmetic_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

/// Appends the raw bytes of a whole array (no count: see put_count).
template <typename T>
inline void put_block(std::string& out, std::span<const T> values) {
  static_assert(std::is_arithmetic_v<T>);
  out.append(reinterpret_cast<const char*>(values.data()), values.size_bytes());
}

/// Appends a count as a u32; a count past 32 bits is a caller bug.
inline void put_count(std::string& out, std::size_t count) {
  TS_CHECK(count <= UINT32_MAX, "storage: count " << count << " does not fit 32 bits");
  put(out, static_cast<std::uint32_t>(count));
}

/// Appends a u32 length, then the bytes.
inline void put_string(std::string& out, std::string_view s) {
  put_count(out, s.size());
  out.append(s);
}

/// Sequential reader over a binary payload.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  /// One fixed-width value.
  template <typename T>
  T get(const char* what) {
    static_assert(std::is_arithmetic_v<T>);
    TS_REQUIRE(sizeof(T) <= remaining(), "storage: truncated payload reading " << what);
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  /// A u32 count of items that take at least `min_bytes` each, bounded by
  /// the bytes after it. The count is read before remaining() is taken: as
  /// two arguments of one call, their order would be unspecified.
  std::size_t count(const char* what, std::size_t min_bytes) {
    const std::uint32_t n = get<std::uint32_t>(what);
    return bounded_count(n, remaining(), min_bytes, what);
  }

  /// `n` raw values into `out`, which ends up holding exactly them.
  template <typename T>
  void block(std::vector<T>& out, std::uint64_t n, const char* what) {
    static_assert(std::is_arithmetic_v<T>);
    out.resize(bounded_count(n, remaining(), sizeof(T), what));
    if (out.empty()) return;  // memcpy's pointers must not be null, even for 0 bytes
    std::memcpy(out.data(), bytes_.data() + pos_, out.size() * sizeof(T));
    pos_ += out.size() * sizeof(T);
  }

  /// A u32 length, then that many bytes.
  std::string_view string(const char* what) {
    const std::size_t n = count(what, 1);
    const std::string_view s = bytes_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  [[nodiscard]] bool done() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace treesat::wire
