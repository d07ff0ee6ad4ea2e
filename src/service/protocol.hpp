// The wire format of treesat-serve: line-delimited JSON, one request per
// line in, one response per line out (src/service/service.hpp is the
// handler; this header is only the parse/format layer).
//
// Requests are *flat* JSON objects -- string, number, true/false/null
// values, no nested objects or arrays -- which keeps the protocol trivially
// producible from any language and keeps this parser small enough to audit.
// The one value that would want nesting, a whole CRU tree, travels as the
// line-based text format of tree/serialize.hpp inside a JSON string (its
// newlines escaped as \n), so the ingestion format stays the diffable one.
//
// Responses are built with the library's one JSON writer, JsonLineWriter
// (common/json.hpp, included here), which emits fields in call order with
// shortest-round-trip number formatting -- the property the service's
// determinism contract leans on: the same request stream must produce
// byte-identical response streams at any shard or thread count
// (tests/service_determinism_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/json.hpp"

namespace treesat {

/// One parsed value of a request object.
struct JsonValue {
  enum class Kind : std::uint8_t { kString, kNumber, kBool, kNull };
  Kind kind = Kind::kNull;
  std::string string;    ///< kString
  double number = 0.0;   ///< kNumber
  bool boolean = false;  ///< kBool
};

/// A parsed request line: a flat JSON object with typed field access.
/// Missing keys and type mismatches throw InvalidArgument naming the key,
/// so a malformed request turns into one descriptive error response instead
/// of a crash or a silently defaulted field.
class RequestObject {
 public:
  /// Parses one line. Throws InvalidArgument on anything but a single flat
  /// JSON object (trailing garbage, nesting, duplicate keys included).
  [[nodiscard]] static RequestObject parse(std::string_view line);

  [[nodiscard]] bool has(const std::string& key) const { return fields_.count(key) != 0; }

  [[nodiscard]] const std::string& string_at(const std::string& key) const;
  [[nodiscard]] double number_at(const std::string& key) const;
  [[nodiscard]] bool bool_at(const std::string& key) const;
  /// number_at narrowed to a non-negative integer below 2^64 (ids, counts);
  /// any other number throws before it reaches the cast.
  [[nodiscard]] std::size_t size_at(const std::string& key) const;

  [[nodiscard]] std::string string_or(const std::string& key, std::string fallback) const;
  [[nodiscard]] double number_or(const std::string& key, double fallback) const;
  [[nodiscard]] bool bool_or(const std::string& key, bool fallback) const;

 private:
  const JsonValue& at(const std::string& key, JsonValue::Kind kind) const;

  std::map<std::string, JsonValue> fields_;
};

}  // namespace treesat
