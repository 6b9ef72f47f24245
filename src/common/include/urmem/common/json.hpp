// Minimal JSON document model for the declarative scenario API.
//
// The scenario layer speaks JSON in both directions — `scenario_spec`
// files are parsed from disk / CLI overrides, and `urmem-run` emits a
// deterministic JSON report that CI diffs against checked-in goldens —
// so the representation is chosen for reproducibility rather than
// speed:
//  * objects preserve insertion order (dumps are stable),
//  * integers parsed without '.'/exponent stay exact 64-bit integers
//    (seeds and trial counts round-trip bit-exactly),
//  * doubles dump via std::to_chars shortest round-trip form, so
//    parse(dump(x)) == x and goldens carry no precision noise.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace urmem {

/// Error raised by json_value::parse with 1-based line/column context.
class json_parse_error : public std::runtime_error {
 public:
  json_parse_error(const std::string& message, std::size_t line, std::size_t column);
  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  [[nodiscard]] std::size_t column() const noexcept { return column_; }

 private:
  std::size_t line_;
  std::size_t column_;
};

/// Error raised by typed accessors on a kind mismatch.
class json_type_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One JSON document node: null, bool, number, string, array or object.
class json_value {
 public:
  enum class kind : std::uint8_t { null, boolean, number, string, array, object };

  using array_t = std::vector<json_value>;
  /// Insertion-ordered key/value members (no hashing: specs are tiny and
  /// dump order must be reproducible).
  using object_t = std::vector<std::pair<std::string, json_value>>;

  json_value() = default;  // null
  json_value(bool value) : kind_(kind::boolean), bool_(value) {}
  json_value(double value) : kind_(kind::number), num_(value) {}
  json_value(std::int64_t value);
  json_value(std::uint64_t value);
  json_value(int value) : json_value(static_cast<std::int64_t>(value)) {}
  json_value(unsigned value) : json_value(static_cast<std::uint64_t>(value)) {}
  json_value(std::string value) : kind_(kind::string), str_(std::move(value)) {}
  json_value(std::string_view value) : json_value(std::string(value)) {}
  json_value(const char* value) : json_value(std::string(value)) {}

  [[nodiscard]] static json_value make_array() { json_value v; v.kind_ = kind::array; return v; }
  [[nodiscard]] static json_value make_object() { json_value v; v.kind_ = kind::object; return v; }

  /// Deepest array/object nesting parse() accepts (bounds its stack).
  static constexpr std::size_t max_nesting_depth = 512;

  /// Parses one RFC 8259 JSON document (surrounding whitespace allowed;
  /// trailing garbage rejected). Throws json_parse_error.
  [[nodiscard]] static json_value parse(std::string_view text);

  [[nodiscard]] kind type() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == kind::null; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == kind::boolean; }
  [[nodiscard]] bool is_number() const noexcept { return kind_ == kind::number; }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == kind::string; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == kind::array; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == kind::object; }
  /// True for numbers parsed/constructed as exact integers.
  [[nodiscard]] bool is_integer() const noexcept {
    return kind_ == kind::number && int_kind_ != int_kind::none;
  }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  /// Exact unsigned value; throws on non-integers and negatives.
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const array_t& as_array() const;
  [[nodiscard]] array_t& as_array();
  [[nodiscard]] const object_t& as_object() const;
  [[nodiscard]] object_t& as_object();

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const json_value* find(std::string_view key) const;

  /// Sets (replacing) or appends an object member; converts null to {}.
  json_value& set(std::string_view key, json_value value);

  /// Sets the node at dotted `path` (e.g. "fault.pcell"), creating
  /// intermediate objects; converts nulls on the way down.
  void set_path(std::string_view path, json_value value);

  /// Appends to an array node (converts null to []).
  json_value& push_back(json_value value);

  /// Serializes with 2-space indentation and a stable member order.
  [[nodiscard]] std::string dump(unsigned indent = 2) const;

  friend bool operator==(const json_value& a, const json_value& b);

 private:
  enum class int_kind : std::uint8_t { none, signed_, unsigned_ };

  void dump_to(std::string& out, unsigned indent, unsigned depth) const;

  kind kind_ = kind::null;
  bool bool_ = false;
  double num_ = 0.0;
  std::uint64_t uint_ = 0;   // valid when int_kind_ == unsigned_
  std::int64_t int_ = 0;     // valid when int_kind_ == signed_
  int_kind int_kind_ = int_kind::none;
  std::string str_;
  array_t array_;
  object_t object_;
};

}  // namespace urmem
