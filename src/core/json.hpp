// Minimal JSON value + recursive-descent parser (RFC 8259 subset).
//
// The sweep-shard manifest (run/shard.hpp) is a JSON document, and the
// container image carries no JSON library, so we parse the grammar we
// emit ourselves: objects, arrays, strings (with the standard escapes),
// integers/doubles, booleans and null.  The parser is strict — trailing
// garbage, unterminated literals and malformed escapes all throw
// PreconditionError — because a manifest that parses loosely would
// defeat the merge tool's validation job.
//
// This is deliberately NOT a general-purpose DOM: no comments, no
// duplicate-key detection (last key wins, as we never emit duplicates),
// and \uXXXX escapes outside the BMP are rejected rather than paired.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hmm::json {

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;  // null

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  /// True for numbers parsed/built without a fractional part; as_int64
  /// succeeds exactly on these.
  bool is_integer() const { return kind_ == Kind::kNumber && integral_; }

  /// Typed accessors; each throws PreconditionError on a kind mismatch
  /// so manifest readers fail loudly instead of reading zeros.
  bool as_bool() const;
  std::int64_t as_int64() const;  ///< also rejects non-integral numbers
  double as_double() const;
  const std::string& as_string() const;
  const std::vector<Value>& as_array() const;
  const std::map<std::string, Value>& as_object() const;

  /// Object member access: `get` throws when the key is missing,
  /// `find` returns nullptr instead.
  const Value& get(const std::string& key) const;
  const Value* find(const std::string& key) const;
  bool has(const std::string& key) const { return find(key) != nullptr; }

  static Value make_bool(bool b);
  static Value make_int(std::int64_t v);
  static Value make_double(double v);
  static Value make_string(std::string s);
  static Value make_array(std::vector<Value> items);
  static Value make_object(std::map<std::string, Value> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::int64_t integer_ = 0;  ///< valid when integral_
  bool integral_ = false;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;
};

/// Deepest object/array nesting parse() accepts.  The parser recurses
/// once per level, so a deeper document throws PreconditionError rather
/// than exhausting the stack.  Machine files nest at most 5 levels and a
/// wire request with an inline machine 6.
inline constexpr int kMaxDepth = 64;

/// Parse one complete JSON document; throws PreconditionError with a
/// byte offset on any syntax error, trailing input or nesting deeper
/// than kMaxDepth.
Value parse(std::string_view text);

/// Serialize a Value to one compact line (no insignificant whitespace,
/// object keys in map order, so equal Values always serialize to equal
/// bytes).  Integers print exactly; other finite doubles print with 17
/// significant digits, enough that parse(to_string(v)) reconstructs the
/// identical double.  Non-finite doubles have no JSON spelling and throw
/// PreconditionError.  `to_string(parse(s))` is therefore a canonical
/// form: the service's NDJSON frames are emitted with it and round-trip
/// through parse() byte-for-byte (tests/service_test.cpp).
std::string to_string(const Value& value);

/// Escape `s` for embedding between double quotes in a JSON document
/// (quotes, backslashes and control characters).
std::string escape(std::string_view s);

}  // namespace hmm::json
