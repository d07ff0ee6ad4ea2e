#include "service/protocol.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

#include "common/check.hpp"

namespace treesat {

namespace {

/// Cursor over one request line. Errors carry the byte offset, which is
/// what a client debugging a hand-written request wants to see.
struct Cursor {
  std::string_view text;
  std::size_t at = 0;

  [[noreturn]] void fail(const std::string& why) const {
    throw InvalidArgument("request parse: " + why + " at byte " + std::to_string(at));
  }

  void skip_ws() {
    while (at < text.size() && std::isspace(static_cast<unsigned char>(text[at]))) ++at;
  }

  [[nodiscard]] char peek() {
    skip_ws();
    if (at >= text.size()) fail("unexpected end of input");
    return text[at];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++at;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text.substr(at, word.size()) != word) return false;
    at += word.size();
    return true;
  }

  /// One string token with the escapes json_escape emits (plus \/ \b \f and
  /// ASCII \uXXXX, for requests produced by stock JSON serializers).
  [[nodiscard]] std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (at >= text.size()) fail("unterminated string");
      const char c = text[at];
      if (c == '"') {
        ++at;
        return out;
      }
      if (c != '\\') {
        out += c;
        ++at;
        continue;
      }
      if (at + 1 >= text.size()) fail("unterminated escape");
      const char esc = text[at + 1];
      at += 2;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (at + 4 > text.size()) fail("truncated \\u escape");
          unsigned code = 0;
          const auto [ptr, ec] =
              std::from_chars(text.data() + at, text.data() + at + 4, code, 16);
          if (ec != std::errc{} || ptr != text.data() + at + 4) fail("bad \\u escape");
          // The protocol's payloads are the library's own ASCII-clean names
          // and serialized trees; \u only round-trips json_escape's control
          // characters, so anything past ASCII is rejected rather than
          // half-decoded.
          if (code > 0x7f) fail("\\u escape beyond ASCII is not supported");
          out += static_cast<char>(code);
          at += 4;
          break;
        }
        default: fail(std::string("unknown escape '\\") + esc + "'");
      }
    }
  }

  [[nodiscard]] double parse_number() {
    skip_ws();
    const std::size_t start = at;
    if (at < text.size() && (text[at] == '-' || text[at] == '+')) ++at;
    while (at < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[at])) || text[at] == '.' ||
            text[at] == 'e' || text[at] == 'E' ||
            ((text[at] == '-' || text[at] == '+') &&
             (text[at - 1] == 'e' || text[at - 1] == 'E')))) {
      ++at;
    }
    double out = 0.0;
    const auto [ptr, ec] = std::from_chars(text.data() + start, text.data() + at, out);
    if (ec != std::errc{} || ptr != text.data() + at || at == start) {
      fail("malformed number");
    }
    return out;
  }
};

}  // namespace

RequestObject RequestObject::parse(std::string_view line) {
  Cursor c{line};
  RequestObject out;
  c.expect('{');
  if (c.peek() != '}') {
    while (true) {
      const std::string key = c.parse_string();
      c.expect(':');
      JsonValue value;
      const char head = c.peek();
      if (head == '"') {
        value.kind = JsonValue::Kind::kString;
        value.string = c.parse_string();
      } else if (head == 't' && c.literal("true")) {
        value.kind = JsonValue::Kind::kBool;
        value.boolean = true;
      } else if (head == 'f' && c.literal("false")) {
        value.kind = JsonValue::Kind::kBool;
        value.boolean = false;
      } else if (head == 'n' && c.literal("null")) {
        value.kind = JsonValue::Kind::kNull;
      } else if (head == '{' || head == '[') {
        c.fail("nested values are not supported (the protocol is flat)");
      } else {
        value.kind = JsonValue::Kind::kNumber;
        value.number = c.parse_number();
      }
      if (!out.fields_.emplace(key, std::move(value)).second) {
        c.fail("duplicate key '" + key + "'");
      }
      if (c.peek() == ',') {
        ++c.at;
        continue;
      }
      break;
    }
  }
  c.expect('}');
  c.skip_ws();
  if (c.at != line.size()) c.fail("trailing content after the request object");
  return out;
}

const JsonValue& RequestObject::at(const std::string& key, JsonValue::Kind kind) const {
  const auto it = fields_.find(key);
  if (it == fields_.end()) {
    throw InvalidArgument("request: missing field '" + key + "'");
  }
  const char* const kind_names[] = {"string", "number", "bool", "null"};
  if (it->second.kind != kind) {
    throw InvalidArgument("request: field '" + key + "' must be a " +
                          kind_names[static_cast<std::size_t>(kind)]);
  }
  return it->second;
}

const std::string& RequestObject::string_at(const std::string& key) const {
  return at(key, JsonValue::Kind::kString).string;
}

double RequestObject::number_at(const std::string& key) const {
  return at(key, JsonValue::Kind::kNumber).number;
}

bool RequestObject::bool_at(const std::string& key) const {
  return at(key, JsonValue::Kind::kBool).boolean;
}

std::size_t RequestObject::size_at(const std::string& key) const {
  const double v = number_at(key);
  // Range first: casting a double at or past 2^64 (or a NaN) to an integer
  // is undefined, not a value that fails a compare.
  if (!(v >= 0.0 && v < 0x1p64) || v != std::floor(v)) {
    throw InvalidArgument("request: field '" + key + "' must be a non-negative integer below 2^64");
  }
  return static_cast<std::size_t>(v);
}

std::string RequestObject::string_or(const std::string& key, std::string fallback) const {
  return has(key) ? string_at(key) : std::move(fallback);
}

double RequestObject::number_or(const std::string& key, double fallback) const {
  return has(key) ? number_at(key) : fallback;
}

bool RequestObject::bool_or(const std::string& key, bool fallback) const {
  return has(key) ? bool_at(key) : fallback;
}

}  // namespace treesat
