// The library's one JSON writer and its one string escaper. Every document
// treesat emits goes through them: service responses and the stats
// document (service/), the result exports (io/json.hpp), span traces
// (obs/trace.hpp), the traffic generators' request lines (workload/) and
// the bench --json files. So every document escapes strings the same way
// and formats numbers with shortest_round_trip (common/format.hpp), which
// is what keeps the goldens and the service's byte-identity contract
// stable.
//
// JsonLineWriter appends to one std::string in call order: field_* writes a
// member of the innermost open object, item_* an element of the innermost
// open array. Nesting is the caller's to balance (each begin_* closed by
// its end_* before finish()); the writer only tracks where commas go.
// Keys are escaped like string values.
#pragma once

#include <charconv>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

#include "common/format.hpp"

namespace treesat {

/// Appends `s` escaped for inclusion inside JSON quotes: '"', '\\', \n, \r
/// and \t by name, the other bytes below 0x20 as \u00xx, every other byte
/// as it is (so UTF-8 passes through).
void append_json_escaped(std::string& out, std::string_view s);

/// `s` escaped for inclusion inside JSON quotes (append_json_escaped).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Builder for one JSON document whose top level is an object.
class JsonLineWriter {
 public:
  /// Opens the top-level object, with room for a typical service response.
  JsonLineWriter() {
    out_.reserve(512);
    out_ += '{';
  }

  JsonLineWriter& field_str(std::string_view key, std::string_view value) {
    member(key);
    return quoted(value);
  }
  JsonLineWriter& field_num(std::string_view key, double value) {
    member(key);
    return number(value);
  }
  JsonLineWriter& field_uint(std::string_view key, std::size_t value) {
    member(key);
    char buf[24];
    const char* const end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    out_.append(buf, static_cast<std::size_t>(end - buf));
    return *this;
  }
  JsonLineWriter& field_bool(std::string_view key, bool value) {
    return field_raw(key, value ? "true" : "false");
  }
  JsonLineWriter& field_null(std::string_view key) { return field_raw(key, "null"); }
  /// Splices pre-serialized JSON (an embedded document).
  JsonLineWriter& field_raw(std::string_view key, std::string_view json) {
    member(key);
    out_ += json;
    return *this;
  }

  /// Opens an object or an array as the value of `key`.
  JsonLineWriter& begin_object(std::string_view key) { return member(key).open('{'); }
  JsonLineWriter& begin_array(std::string_view key) { return member(key).open('['); }
  /// Opens an object as the next element of the innermost array.
  JsonLineWriter& begin_object() { return element().open('{'); }
  JsonLineWriter& end_object() { return close('}'); }
  JsonLineWriter& end_array() { return close(']'); }

  JsonLineWriter& item_str(std::string_view value) { return element().quoted(value); }
  JsonLineWriter& item_num(double value) { return element().number(value); }
  /// Splices a pre-serialized element.
  JsonLineWriter& item_raw(std::string_view json) {
    element().out_ += json;
    return *this;
  }

  /// Closes the top-level object and hands the document over, exact-size:
  /// callers keep documents around (a replay stores every response). The
  /// writer is spent afterwards.
  [[nodiscard]] std::string finish() {
    out_ += '}';
    out_.shrink_to_fit();
    return std::move(out_);
  }

 private:
  /// The comma before every member or element but a container's first.
  JsonLineWriter& element() {
    if (!first_) out_ += ',';
    first_ = false;
    return *this;
  }
  JsonLineWriter& member(std::string_view key) {
    element().quoted(key).out_ += ':';
    return *this;
  }
  JsonLineWriter& quoted(std::string_view value) {
    out_ += '"';
    append_json_escaped(out_, value);
    out_ += '"';
    return *this;
  }
  JsonLineWriter& number(double value) {
    append_shortest_round_trip(out_, value);
    return *this;
  }
  JsonLineWriter& open(char bracket) {
    out_ += bracket;
    first_ = true;
    return *this;
  }
  /// A closed container is a member of its parent, so whatever follows it
  /// there takes a comma.
  JsonLineWriter& close(char bracket) {
    out_ += bracket;
    first_ = false;
    return *this;
  }

  std::string out_;
  bool first_ = true;
};

}  // namespace treesat
