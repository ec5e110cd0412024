#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/fmt.hpp"

namespace sb::util {

bool JsonValue::as_bool() const {
  SB_EXPECTS(kind_ == Kind::kBool, "JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  SB_EXPECTS(kind_ == Kind::kNumber, "JSON value is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  SB_EXPECTS(kind_ == Kind::kString, "JSON value is not a string");
  return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
  SB_EXPECTS(kind_ == Kind::kArray, "JSON value is not an array");
  return array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  SB_EXPECTS(kind_ == Kind::kObject, "JSON value is not an object");
  return object_;
}

JsonValue& JsonValue::operator[](std::string_view key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  SB_EXPECTS(kind_ == Kind::kObject, "JSON operator[] on a non-object");
  for (auto& [k, v] : object_) {
    if (k == key) return v;
  }
  object_.emplace_back(std::string(key), JsonValue());
  return object_.back().second;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue* JsonValue::find_path(
    std::initializer_list<std::string_view> keys) const {
  const JsonValue* cursor = this;
  for (const std::string_view key : keys) {
    cursor = cursor->find(key);
    if (cursor == nullptr) return nullptr;
  }
  return cursor;
}

void JsonValue::push_back(JsonValue value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  SB_EXPECTS(kind_ == Kind::kArray, "JSON push_back on a non-array");
  array_.push_back(std::move(value));
}

size_t JsonValue::size() const {
  switch (kind_) {
    case Kind::kArray: return array_.size();
    case Kind::kObject: return object_.size();
    default: return 0;
  }
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double n) {
  SB_EXPECTS(std::isfinite(n), "JSON cannot represent non-finite numbers");
  // Integers within double's exact range print without a decimal point.
  if (n == std::floor(n) && std::abs(n) < 9.007199254740992e15) {
    out += fmt("{}", static_cast<int64_t>(n));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", n);
  out += buf;
}

}  // namespace

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  const auto newline_indent = [&](int levels) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<size_t>(indent * levels), ' ');
  };
  switch (kind_) {
    case Kind::kNull: out += "null"; return;
    case Kind::kBool: out += bool_ ? "true" : "false"; return;
    case Kind::kNumber: append_number(out, number_); return;
    case Kind::kString: append_escaped(out, string_); return;
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += indent > 0 ? "," : ", ";
        newline_indent(depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      newline_indent(depth);
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += indent > 0 ? "," : ", ";
        newline_indent(depth + 1);
        append_escaped(out, object_[i].first);
        out += ": ";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_indent(depth);
      out += '}';
      return;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(
        fmt("JSON parse error at offset {}: {}", pos_, what));
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(fmt("expected '{}'", std::string(1, c)));
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue out = JsonValue::object();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      out[key] = parse_value();
      const char c = peek();
      ++pos_;
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue out = JsonValue::array();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      out.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          // Only BMP code points below 0x800 are emitted by our writer;
          // encode as UTF-8 for completeness.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
    fail("unterminated string");
  }

  JsonValue parse_number() {
    skip_whitespace();
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    double value = 0.0;
    const auto* first = text_.data() + start;
    const auto* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || ptr != last) fail("bad number");
    return JsonValue(value);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).parse(); }

std::string hex_u64(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(value));
  return buf;
}

uint64_t parse_u64(const std::string& text) {
  // std::stoull alone would take "-1" (wrapping to 2^64-1) or " 7", and
  // ignore trailing junk; demand a whole unsigned literal.
  size_t used = 0;
  uint64_t value = 0;
  if (!text.empty() && std::isxdigit(static_cast<unsigned char>(text[0]))) {
    try {
      value = std::stoull(text, &used, 0);
    } catch (const std::exception&) {
      used = 0;
    }
  }
  if (used == 0 || used != text.size()) {
    throw std::runtime_error(
        fmt("expected a decimal or 0x hex 64-bit integer, got '{}'", text));
  }
  return value;
}

namespace {

/// Indexed by JsonValue::Kind, for the readers' error messages.
constexpr std::string_view kKindNames[] = {"null",     "a bool",   "a number",
                                           "a string", "an array", "an object"};

}  // namespace

const JsonValue& get_field(const JsonValue& object, std::string_view key,
                           JsonValue::Kind kind) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) {
    throw std::runtime_error(fmt("missing field '{}'", key));
  }
  if (value->kind() != kind) {
    throw std::runtime_error(
        fmt("field '{}' must be {}, got {}", key,
            kKindNames[static_cast<size_t>(kind)],
            kKindNames[static_cast<size_t>(value->kind())]));
  }
  return *value;
}

const std::string& get_string(const JsonValue& object, std::string_view key) {
  return get_field(object, key, JsonValue::Kind::kString).as_string();
}

bool get_bool(const JsonValue& object, std::string_view key) {
  return get_field(object, key, JsonValue::Kind::kBool).as_bool();
}

double get_number(const JsonValue& object, std::string_view key) {
  return get_field(object, key, JsonValue::Kind::kNumber).as_number();
}

int64_t get_int(const JsonValue& object, std::string_view key, int64_t min,
                int64_t max) {
  SB_EXPECTS(-kMaxExactJsonInt <= min && min <= max &&
             max <= kMaxExactJsonInt);
  const double value = get_number(object, key);
  if (!(value >= static_cast<double>(min) &&
        value <= static_cast<double>(max)) ||
      value != std::floor(value)) {
    throw std::runtime_error(
        fmt("field '{}' must be a whole number in [{}, {}], got {}", key, min,
            max, value));
  }
  return static_cast<int64_t>(value);
}

size_t get_size(const JsonValue& object, std::string_view key) {
  return static_cast<size_t>(get_int(object, key, 0, kMaxExactJsonInt));
}

uint64_t get_u64(const JsonValue& object, std::string_view key) {
  const std::string& text = get_string(object, key);
  try {
    return parse_u64(text);
  } catch (const std::runtime_error& error) {
    throw std::runtime_error(fmt("field '{}': {}", key, error.what()));
  }
}

}  // namespace sb::util
