// Minimal JSON value tree: the codebase's first JSON *reader*, plus the
// one escaping routine every writer shares.
//
// Until the sharding subsystem (src/runtime/shard.h) the repo only ever
// *wrote* JSON (campaign summaries, the run log); shard manifests and
// shard results must round-trip through files between processes, so this
// adds a small recursive-descent parser and a serializer with two
// properties the sharding guarantees lean on:
//
//  - Numbers are stored as their source lexeme, not eagerly coerced to
//    double: 64-bit hashes and seeds survive parse->dump bit-exactly, and
//    doubles written with number(double) (printf %.17g) round-trip
//    bit-exactly through as_double(). Coercion happens only when the
//    caller asks (as_i64 / as_u64 / as_double), with range checks.
//  - Object members keep insertion order (a vector, not a map), so
//    dump() output is deterministic and diffs cleanly across processes.
//
// Everything throws std::runtime_error with a byte offset (parsing) or the
// offending key/type (accessors) — shard merge turns these into the
// "which shard is corrupt" errors the CLI reports.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace unilocal {
namespace json {

/// Escapes `text` for embedding between the quotes of a JSON string
/// literal: '"', '\\', and every control character below 0x20 (with the
/// usual \n \t \r \b \f shorthands). Shared by every JSON writer in the
/// repo — campaign summaries, the run log, shard manifests/results.
std::string escape(const std::string& text);

class Value;

/// Reads a 64-bit field written either as a JSON number or as a decimal
/// string — the repo's convention for 64-bit values (grid hashes, seeds)
/// is the string spelling, so doubles-only readers cannot corrupt them;
/// this accepts both. Throws std::runtime_error on anything else.
std::uint64_t u64_field(const Value& value);

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Value>;
  /// Insertion-ordered members: deterministic dumps, duplicate keys
  /// rejected by set()/parse.
  using Object = std::vector<std::pair<std::string, Value>>;

  Value() = default;  // null

  static Value boolean(bool value);
  static Value number(double value);         // %.17g — round-trips exactly
  static Value number(std::int64_t value);
  static Value number(std::uint64_t value);
  /// A number from a pre-validated JSON lexeme, stored verbatim (what the
  /// parser uses — 64-bit integers survive parse->dump untouched).
  static Value number_lexeme(std::string lexeme);
  static Value string(std::string value);
  static Value array();
  static Value object();

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  /// Typed accessors; each throws std::runtime_error naming the expected
  /// and actual type (or the out-of-range lexeme) on mismatch.
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_i64() const;
  std::uint64_t as_u64() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object lookup: find() is null when absent; at() throws naming the key.
  const Value* find(const std::string& key) const;
  const Value& at(const std::string& key) const;
  /// Appends a member (throws on duplicate keys — manifests never shadow).
  void set(std::string key, Value value);
  /// Appends an array element.
  void push_back(Value value);

  /// Compact serialization (no whitespace); parse(dump()) == *this.
  std::string dump() const;
  void dump(std::string& out) const;

  /// Parses one JSON document (trailing non-whitespace is an error).
  /// Throws std::runtime_error with the byte offset of the first problem.
  static Value parse(const std::string& text);

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  /// kNumber keeps the source lexeme; kString keeps the decoded text.
  std::string scalar_;
  Array array_;
  Object object_;
};

/// int_field's error: `json: "<key>" out of range: <value>`.
[[noreturn]] void throw_out_of_range(const std::string& key,
                                     const Value& value);

/// Reads the integer member `key` of `object` as T, throwing
/// std::runtime_error (see throw_out_of_range) when the value does not fit
/// T: a tampered document must not wrap silently into range.
template <typename T>
T int_field(const Value& object, const std::string& key) {
  static_assert(std::is_integral_v<T>);
  const Value& value = object.at(key);
  using Limits = std::numeric_limits<T>;
  if constexpr (std::is_signed_v<T>) {
    const std::int64_t v = value.as_i64();
    if (v < Limits::min() || v > Limits::max()) throw_out_of_range(key, value);
    return static_cast<T>(v);
  } else {
    const std::uint64_t v = value.as_u64();
    if (v > Limits::max()) throw_out_of_range(key, value);
    return static_cast<T>(v);
  }
}

}  // namespace json
}  // namespace unilocal
