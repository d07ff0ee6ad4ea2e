// Strict line/token parsing shared by the storage formats (snapshot
// payloads and checkpoint manifests). Everything here rejects rather than
// guesses: a field either parses exactly or throws InvalidArgument with a
// "storage:" message naming what was malformed -- the loud-failure half of
// the snapshot contract (storage/snapshot.hpp).
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace treesat::wire {

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

/// Strict double parse (common/parse.hpp) with the storage message.
/// Storage doubles are written by shortest_round_trip, so this reparse is
/// exact; std::from_chars underneath needs no null-terminated copy, which
/// is what keeps decode_snapshot (mostly frontier-point doubles) ahead of
/// a cold re-solve.
inline double parse_double_tok(std::string_view tok, const char* what) {
  const std::optional<double> value = treesat::parse_double(tok);
  TS_REQUIRE(value.has_value(), "storage: " << what << " '" << tok << "' is not a number");
  return *value;
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

/// Appends `v` in decimal (the form parse_u64 and take_u64 read back).
inline void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// Appends `v` in lowercase hex without leading zeros (take_hex64's form).
inline void append_hex(std::string& out, std::uint64_t v) {
  char buf[16];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v, 16).ptr);
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

/// Splits a payload line on single spaces into `tokens` (cleared first);
/// rejects leading/trailing/double spaces so every encoding has exactly one
/// parse. The out-parameter form lets hot loops (cache entries, frontier
/// points) reuse one vector instead of allocating per line.
inline void split_tokens_into(std::string_view line, const char* what,
                              std::vector<std::string_view>& tokens) {
  tokens.clear();
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t space = line.find(' ', pos);
    const std::size_t end = space == std::string_view::npos ? line.size() : space;
    TS_REQUIRE(end > pos, "storage: stray space in " << what << " line");
    tokens.push_back(line.substr(pos, end - pos));
    pos = space == std::string_view::npos ? line.size() : space + 1;
    TS_REQUIRE(pos < line.size() || space == std::string_view::npos,
               "storage: trailing space in " << what << " line");
  }
  TS_REQUIRE(!tokens.empty(), "storage: empty " << what << " line");
}

/// Allocating convenience form of split_tokens_into().
inline std::vector<std::string_view> split_tokens(std::string_view line, const char* what) {
  std::vector<std::string_view> tokens;
  split_tokens_into(line, what, tokens);
  return tokens;
}

/// Single-pass token cursor over one payload line: each take_* consumes a
/// token and its separating space in the same character scan. This is the
/// hot-loop alternative to split_tokens -- frontier-point lines run to ~80
/// tokens, and the tokenize-then-reparse double pass (plus its token
/// vector) is what used to dominate decode_snapshot. Same strictness:
/// single spaces only, every token non-empty, finish() rejects leftovers.
class TokenCursor {
 public:
  TokenCursor(std::string_view line, const char* what) : line_(line), what_(what) {}

  /// Consumes one token and requires it to equal `word` exactly.
  void expect(std::string_view word) {
    TS_REQUIRE(token() == word,
               "storage: expected a '" << word << "' token in " << what_ << " line");
  }

  /// Consumes and returns one raw token.
  std::string_view token() {
    TS_REQUIRE(pos_ < line_.size(), "storage: truncated " << what_ << " line");
    const std::size_t start = pos_;
    while (pos_ < line_.size() && line_[pos_] != ' ') ++pos_;
    const std::string_view tok = line_.substr(start, pos_ - start);
    TS_REQUIRE(!tok.empty(), "storage: stray space in " << what_ << " line");
    skip_separator();
    return tok;
  }

  /// Consumes one all-digits decimal token (overflow rejected).
  std::uint64_t take_u64(const char* field) {
    TS_REQUIRE(pos_ < line_.size(), "storage: truncated " << what_ << " line");
    std::uint64_t value = 0;
    bool any = false;
    while (pos_ < line_.size() && line_[pos_] != ' ') {
      const char c = line_[pos_++];
      TS_REQUIRE(c >= '0' && c <= '9', "storage: " << field << " is not a number");
      const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
      TS_REQUIRE(value <= (UINT64_MAX - digit) / 10, "storage: " << field << " overflows");
      value = value * 10 + digit;
      any = true;
    }
    TS_REQUIRE(any, "storage: empty " << field);
    skip_separator();
    return value;
  }

  /// Consumes one lowercase-hex token (1..16 digits).
  std::uint64_t take_hex64(const char* field) {
    TS_REQUIRE(pos_ < line_.size(), "storage: truncated " << what_ << " line");
    std::uint64_t value = 0;
    std::size_t digits = 0;
    while (pos_ < line_.size() && line_[pos_] != ' ') {
      const char c = line_[pos_++];
      const bool dec = c >= '0' && c <= '9';
      const bool hex = c >= 'a' && c <= 'f';
      TS_REQUIRE(dec || hex, "storage: " << field << " is not lowercase hex");
      value = (value << 4) | static_cast<std::uint64_t>(dec ? c - '0' : c - 'a' + 10);
      ++digits;
    }
    TS_REQUIRE(digits >= 1 && digits <= 16, "storage: malformed " << field);
    skip_separator();
    return value;
  }

  /// Bytes of the line not yet consumed.
  [[nodiscard]] std::size_t remaining() const { return line_.size() - pos_; }

  /// Requires the whole line to have been consumed.
  void finish() {
    TS_REQUIRE(pos_ == line_.size(),
               "storage: trailing tokens in " << what_ << " line");
  }

 private:
  void skip_separator() {
    if (pos_ < line_.size()) {
      ++pos_;  // the single separating space
      TS_REQUIRE(pos_ < line_.size(), "storage: trailing space in " << what_ << " line");
    }
  }

  std::string_view line_;
  const char* what_;
  std::size_t pos_ = 0;
};

/// Sequential reader over a payload; every line must end in '\n'.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  std::string_view next(const char* what) {
    TS_REQUIRE(pos_ < text_.size(), "storage: truncated payload, expected " << what);
    const std::size_t nl = text_.find('\n', pos_);
    TS_REQUIRE(nl != std::string_view::npos,
               "storage: payload line for " << what << " lacks a newline");
    const std::string_view line = text_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return line;
  }

  [[nodiscard]] bool done() const { return pos_ == text_.size(); }
  /// Bytes of the payload not yet consumed.
  [[nodiscard]] std::size_t remaining() const { return text_.size() - pos_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Rest-of-line field ("plan <spec>", "cold_reason <text>"): the keyword
/// alone encodes the empty value, "<keyword> <rest>" everything else.
inline std::string rest_of_line(std::string_view line, std::string_view keyword) {
  TS_REQUIRE(line.substr(0, keyword.size()) == keyword &&
                 (line.size() == keyword.size() || line[keyword.size()] == ' '),
             "storage: expected a '" << keyword << "' line, got '" << line << "'");
  if (line.size() == keyword.size()) return std::string();
  return std::string(line.substr(keyword.size() + 1));
}

}  // namespace treesat::wire
