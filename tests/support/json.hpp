// Test support: a minimal JSON document model and recursive-descent parser.
//
// The observability layer emits machine-readable JSON (Chrome trace_event
// files, metric-registry dumps, engine profiles); the tests must be able to
// assert those files actually parse and carry the promised schema without
// shelling out to external tooling. This is a reader for that purpose —
// strict on structure (throws SimError on malformed input), tolerant on
// numbers (everything is a double, like JavaScript).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace chicsim::test_support {

class JsonValue {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::Bool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::Number; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::String; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }

  /// Typed accessors; throw SimError on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object member by key, or nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Object member by key; throws SimError when absent.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

  /// Array element count (0 for non-arrays).
  [[nodiscard]] std::size_t size() const;

  static JsonValue make_null();
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parse a complete JSON document; trailing non-whitespace or any syntax
/// error throws SimError with a byte offset in the message.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace chicsim::test_support
