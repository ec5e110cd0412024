#pragma once
// Minimal JSON value type, writer, and parser.
//
// Just enough JSON for the machine-readable bench/sweep reports
// (BENCH_sim.json, docs/BENCHMARKS.md): objects preserve insertion order so
// emitted files are stable and diffable, numbers are doubles (64-bit seeds
// travel as hex strings), and the parser accepts exactly what dump()
// produces plus ordinary standard JSON. No external dependency.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace sb::util {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// Insertion-ordered; keys are unique (operator[] overwrites).
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;  // null
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  JsonValue(double n) : kind_(Kind::kNumber), number_(n) {}
  /// Any integral type; stored as double (seeds go through hex_u64).
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  JsonValue(T n) : JsonValue(static_cast<double>(n)) {}
  JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  JsonValue(std::string_view s) : JsonValue(std::string(s)) {}
  JsonValue(const char* s) : JsonValue(std::string(s)) {}

  [[nodiscard]] static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  [[nodiscard]] static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }

  /// Typed accessors; abort (SB_EXPECTS) on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object access: inserts a null member when absent (value must be an
  /// object or null; null promotes to an empty object).
  JsonValue& operator[](std::string_view key);

  /// Object lookup without insertion; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Path lookup: find("a") then find("b")...; nullptr on any miss.
  [[nodiscard]] const JsonValue* find_path(
      std::initializer_list<std::string_view> keys) const;

  /// Array append (value must be an array or null; null promotes).
  void push_back(JsonValue value);

  [[nodiscard]] size_t size() const;

  /// Serializes. indent = 0 -> single line; otherwise pretty-printed with
  /// the given indent width and a trailing newline at top level.
  [[nodiscard]] std::string dump(int indent = 0) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parses standard JSON. Throws std::runtime_error with an offset on
/// malformed input.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Formats a 64-bit value as "0x..." (seeds are stored as hex strings so
/// they survive the double-typed number representation losslessly).
[[nodiscard]] std::string hex_u64(uint64_t value);

/// Parses hex_u64 output (plain decimal also accepted). Throws
/// std::runtime_error unless the whole text is one unsigned 64-bit literal.
[[nodiscard]] uint64_t parse_u64(const std::string& text);

// -- checked field readers --------------------------------------------------
//
// For JSON this process did not write (wire frames, journal records,
// fuzz-case files). Each reads one member of `object` and throws
// std::runtime_error naming the field when it is absent, of another kind,
// or — for integers — not a whole number inside the stated range. The
// JsonValue accessors abort on a kind mismatch instead, which would let one
// malformed input take the process down.

/// Largest integer a JSON number (a double) holds exactly: 2^53.
inline constexpr int64_t kMaxExactJsonInt = int64_t{1} << 53;

[[nodiscard]] const JsonValue& get_field(const JsonValue& object,
                                         std::string_view key,
                                         JsonValue::Kind kind);
[[nodiscard]] const std::string& get_string(const JsonValue& object,
                                            std::string_view key);
[[nodiscard]] bool get_bool(const JsonValue& object, std::string_view key);
[[nodiscard]] double get_number(const JsonValue& object, std::string_view key);
/// A whole number in [min, max]; both bounds within ±kMaxExactJsonInt.
[[nodiscard]] int64_t get_int(const JsonValue& object, std::string_view key,
                              int64_t min, int64_t max);
/// A whole number in [0, kMaxExactJsonInt].
[[nodiscard]] size_t get_size(const JsonValue& object, std::string_view key);
/// A 64-bit value stored as a hex_u64 (or decimal) string.
[[nodiscard]] uint64_t get_u64(const JsonValue& object, std::string_view key);

}  // namespace sb::util
