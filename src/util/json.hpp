// Minimal JSON reader for the tooling side of the repo: bench_diff parses
// BENCH_*.json result files, trace_check replays --trace-out JSONL, and the
// round-trip tests verify what the bench harness wrote.
//
// Scope is deliberately small — parse a complete document into an immutable
// Value tree (null/bool/number/string/array/object). Writers in this repo
// emit JSON by hand (see obs::Registry::to_json) with the quote() and
// number() helpers below; this is the matching read side, not a
// serialization framework. Numbers are doubles, which is exact for every
// integer the harness emits (< 2^53).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace vodbcast::util::json {

/// Thrown on malformed input; carries a byte offset for context.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " (at byte " + std::to_string(offset) + ")"),
        offset_(offset) {}
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Value>;
  using Object = std::map<std::string, Value>;

  Value() = default;  // null
  explicit Value(bool b) : data_(b) {}
  explicit Value(double n) : data_(n) {}
  explicit Value(std::string s) : data_(std::move(s)) {}
  explicit Value(Array a) : data_(std::move(a)) {}
  explicit Value(Object o) : data_(std::move(o)) {}

  [[nodiscard]] Kind kind() const noexcept {
    return static_cast<Kind>(data_.index());
  }
  [[nodiscard]] bool is_null() const noexcept { return kind() == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind() == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind() == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind() == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return kind() == Kind::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return kind() == Kind::kObject;
  }

  /// Typed accessors; contract-checked (throw ContractViolation on a kind
  /// mismatch so tooling fails loudly on schema drift).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object lookup: find() returns null on absence (or non-object); at()
  /// contract-checks presence.
  [[nodiscard]] const Value* find(const std::string& key) const;
  [[nodiscard]] const Value& at(const std::string& key) const;
  [[nodiscard]] bool contains(const std::string& key) const {
    return find(key) != nullptr;
  }

  /// Convenience with fallbacks for optional fields.
  [[nodiscard]] double number_or(const std::string& key,
                                 double fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      const std::string& fallback) const;

 private:
  std::variant<std::monostate, bool, double, std::string, Array, Object>
      data_;
};

/// Parses one complete JSON document; trailing whitespace is allowed,
/// trailing garbage is not. Throws ParseError on malformed input.
[[nodiscard]] Value parse(std::string_view text);

/// Parses JSON-Lines: one document per non-empty line.
[[nodiscard]] std::vector<Value> parse_jsonl(std::string_view text);

/// Serializes a Value back to compact JSON (keys in map order; numbers as
/// number() writes them).
[[nodiscard]] std::string dump(const Value& value);

/// Escapes and quotes one string for embedding in hand-written JSON.
[[nodiscard]] std::string quote(std::string_view text);

/// Formats one number for hand-written JSON: %.10g, and null for inf and
/// NaN, which JSON cannot represent.
[[nodiscard]] std::string number(double value);

}  // namespace vodbcast::util::json
