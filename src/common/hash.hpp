// FNV-1a 64 over 64-bit words: the one hash behind the frontier caches'
// content keys (core/incremental.cpp), the store's shard choice
// (service/session_store.cpp) and the storage framing's content hash
// (storage/snapshot.hpp, storage/checkpoint.hpp). The offset basis and
// prime are FNV's, so values are stable across runs and platforms, which
// std::hash is not guaranteed to be.
//
// Each step folds a whole word: a byte string is read as little-endian
// 64-bit words, its tail zero-padded into one last word, and its byte
// length mixed in after it, so "a" and "a\0" hash apart. One multiply per
// eight bytes instead of per byte.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

namespace treesat {

// Byte strings hash through memcpy'd words, which are little-endian only
// on a little-endian host; the storage formats make the same assumption.
static_assert(std::endian::native == std::endian::little,
              "treesat's hashes and storage formats assume a little-endian host");

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// One FNV-1a step over a whole word.
[[nodiscard]] inline std::uint64_t fnv1a_step(std::uint64_t hash, std::uint64_t word) {
  return (hash ^ word) * kFnvPrime;
}

/// FNV-1a over a sequence of words (content keys).
[[nodiscard]] inline std::uint64_t fnv1a_words(std::span<const std::uint64_t> words) {
  std::uint64_t hash = kFnvOffsetBasis;
  for (const std::uint64_t w : words) hash = fnv1a_step(hash, w);
  return hash;
}

/// FNV-1a over `bytes` read as little-endian words: the tail zero-padded
/// into one last word, then the byte length.
[[nodiscard]] inline std::uint64_t fnv1a_bytes(std::string_view bytes) {
  std::uint64_t hash = kFnvOffsetBasis;
  const char* p = bytes.data();
  const std::size_t whole = bytes.size() / 8;
  for (std::size_t i = 0; i < whole; ++i, p += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    hash = fnv1a_step(hash, word);
  }
  if (const std::size_t tail = bytes.size() % 8; tail != 0) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, tail);
    hash = fnv1a_step(hash, word);
  }
  return fnv1a_step(hash, bytes.size());
}

}  // namespace treesat
