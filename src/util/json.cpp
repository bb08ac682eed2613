#include "src/util/json.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace unilocal {
namespace json {

namespace {

const char* type_name(Value::Type type) {
  switch (type) {
    case Value::Type::kNull:
      return "null";
    case Value::Type::kBool:
      return "bool";
    case Value::Type::kNumber:
      return "number";
    case Value::Type::kString:
      return "string";
    case Value::Type::kArray:
      return "array";
    case Value::Type::kObject:
      return "object";
  }
  return "?";
}

[[noreturn]] void type_error(const char* wanted, Value::Type got) {
  throw std::runtime_error(std::string("json: expected ") + wanted +
                           ", got " + type_name(got));
}

void append_utf8(std::string& out, unsigned int code_point) {
  if (code_point < 0x80) {
    out += static_cast<char>(code_point);
  } else if (code_point < 0x800) {
    out += static_cast<char>(0xC0 | (code_point >> 6));
    out += static_cast<char>(0x80 | (code_point & 0x3F));
  } else if (code_point < 0x10000) {
    out += static_cast<char>(0xE0 | (code_point >> 12));
    out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code_point & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (code_point >> 18));
    out += static_cast<char>(0x80 | ((code_point >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code_point & 0x3F));
  }
}

/// Recursive-descent parser over the whole document with a nesting cap
/// (deeply nested input must not overflow the C++ stack).
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    skip_whitespace();
    Value value = parse_value(0);
    skip_whitespace();
    if (at_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 128;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at byte " +
                             std::to_string(at_));
  }

  void skip_whitespace() {
    while (at_ < text_.size()) {
      const char c = text_[at_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++at_;
    }
  }

  char peek() const { return at_ < text_.size() ? text_[at_] : '\0'; }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++at_;
  }

  bool consume_literal(const char* literal) {
    std::size_t length = 0;
    while (literal[length] != '\0') ++length;
    if (text_.compare(at_, length, literal) != 0) return false;
    at_ += length;
    return true;
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    switch (peek()) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return Value::string(parse_string());
      case 't':
        if (consume_literal("true")) return Value::boolean(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value::boolean(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value();
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Value parse_object(int depth) {
    expect('{');
    Value value = Value::object();
    skip_whitespace();
    if (peek() == '}') {
      ++at_;
      return value;
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      Value member = parse_value(depth + 1);
      if (value.find(key) != nullptr) fail("duplicate key \"" + key + "\"");
      value.set(std::move(key), std::move(member));
      skip_whitespace();
      if (peek() == ',') {
        ++at_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  Value parse_array(int depth) {
    expect('[');
    Value value = Value::array();
    skip_whitespace();
    if (peek() == ']') {
      ++at_;
      return value;
    }
    while (true) {
      value.push_back(parse_value(depth + 1));
      skip_whitespace();
      if (peek() == ',') {
        ++at_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (at_ >= text_.size()) fail("unterminated string");
      const char c = text_[at_];
      if (c == '"') {
        ++at_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        ++at_;
        continue;
      }
      ++at_;  // backslash
      if (at_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[at_++];
      switch (escape) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          unsigned int code_point = parse_hex4();
          if (code_point >= 0xD800 && code_point <= 0xDBFF &&
              text_.compare(at_, 2, "\\u") == 0) {
            // High surrogate with another \u following: pair them, or emit
            // U+FFFD for the lone high and reconsider the second escape.
            at_ += 2;
            const unsigned int low = parse_hex4();
            if (low >= 0xDC00 && low <= 0xDFFF) {
              code_point =
                  0x10000 + ((code_point - 0xD800) << 10) + (low - 0xDC00);
            } else {
              append_utf8(out, 0xFFFD);
              code_point = low;  // may itself be a surrogate — checked below
            }
          }
          // Any surviving surrogate half is unrepresentable: U+FFFD, never
          // raw invalid UTF-8.
          if (code_point >= 0xD800 && code_point <= 0xDFFF)
            code_point = 0xFFFD;
          append_utf8(out, code_point);
          break;
        }
        default:
          fail("invalid escape");
      }
    }
  }

  unsigned int parse_hex4() {
    unsigned int value = 0;
    for (int i = 0; i < 4; ++i) {
      if (at_ >= text_.size()) fail("truncated \\u escape");
      const char c = text_[at_++];
      value <<= 4;
      if (c >= '0' && c <= '9')
        value |= static_cast<unsigned int>(c - '0');
      else if (c >= 'a' && c <= 'f')
        value |= static_cast<unsigned int>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        value |= static_cast<unsigned int>(c - 'A' + 10);
      else
        fail("invalid \\u escape");
    }
    return value;
  }

  /// Validates the JSON number grammar and keeps the lexeme verbatim (the
  /// Value stores it untouched, so 64-bit integers survive round trips).
  Value parse_number() {
    const std::size_t start = at_;
    if (peek() == '-') ++at_;
    if (peek() == '0') {
      ++at_;
    } else if (peek() >= '1' && peek() <= '9') {
      while (peek() >= '0' && peek() <= '9') ++at_;
    } else {
      fail("invalid number");
    }
    if (peek() == '.') {
      ++at_;
      if (!(peek() >= '0' && peek() <= '9')) fail("invalid number");
      while (peek() >= '0' && peek() <= '9') ++at_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++at_;
      if (peek() == '+' || peek() == '-') ++at_;
      if (!(peek() >= '0' && peek() <= '9')) fail("invalid number");
      while (peek() >= '0' && peek() <= '9') ++at_;
    }
    return Value::number_lexeme(text_.substr(start, at_ - start));
  }

  const std::string& text_;
  std::size_t at_ = 0;
};

}  // namespace

// --- construction -----------------------------------------------------------

Value Value::boolean(bool value) {
  Value v;
  v.type_ = Type::kBool;
  v.bool_ = value;
  return v;
}

Value Value::number(double value) {
  // JSON has no spelling for these; %.17g would emit bare "inf"/"nan" and
  // silently produce a document no parser (including this one) accepts.
  if (!std::isfinite(value))
    throw std::runtime_error("json: cannot represent non-finite number");
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  Value v;
  v.type_ = Type::kNumber;
  v.scalar_ = buffer;
  return v;
}

Value Value::number(std::int64_t value) {
  Value v;
  v.type_ = Type::kNumber;
  v.scalar_ = std::to_string(value);
  return v;
}

Value Value::number(std::uint64_t value) {
  Value v;
  v.type_ = Type::kNumber;
  v.scalar_ = std::to_string(value);
  return v;
}

Value Value::number_lexeme(std::string lexeme) {
  Value v;
  v.type_ = Type::kNumber;
  v.scalar_ = std::move(lexeme);
  return v;
}

Value Value::string(std::string value) {
  Value v;
  v.type_ = Type::kString;
  v.scalar_ = std::move(value);
  return v;
}

Value Value::array() {
  Value v;
  v.type_ = Type::kArray;
  return v;
}

Value Value::object() {
  Value v;
  v.type_ = Type::kObject;
  return v;
}

// --- accessors --------------------------------------------------------------

bool Value::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double Value::as_double() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  try {
    return std::stod(scalar_);
  } catch (...) {
    throw std::runtime_error("json: number out of double range: " + scalar_);
  }
}

std::int64_t Value::as_i64() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  if (scalar_.find_first_of(".eE") != std::string::npos)
    throw std::runtime_error("json: not an integer: " + scalar_);
  try {
    return std::stoll(scalar_);
  } catch (...) {
    throw std::runtime_error("json: number out of int64 range: " + scalar_);
  }
}

std::uint64_t Value::as_u64() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  if (scalar_.find_first_of(".eE") != std::string::npos ||
      (!scalar_.empty() && scalar_[0] == '-'))
    throw std::runtime_error("json: not a uint64: " + scalar_);
  try {
    return std::stoull(scalar_);
  } catch (...) {
    throw std::runtime_error("json: number out of uint64 range: " + scalar_);
  }
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return scalar_;
}

const Value::Array& Value::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

Value::Array& Value::as_array() {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

const Value::Object& Value::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

Value::Object& Value::as_object() {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

const Value* Value::find(const std::string& key) const {
  if (type_ != Type::kObject) type_error("object", type_);
  for (const auto& [member_key, member] : object_)
    if (member_key == key) return &member;
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  const Value* member = find(key);
  if (member == nullptr)
    throw std::runtime_error("json: missing key \"" + key + "\"");
  return *member;
}

void Value::set(std::string key, Value value) {
  if (type_ != Type::kObject) type_error("object", type_);
  if (find(key) != nullptr)
    throw std::runtime_error("json: duplicate key \"" + key + "\"");
  object_.emplace_back(std::move(key), std::move(value));
}

void Value::push_back(Value value) {
  if (type_ != Type::kArray) type_error("array", type_);
  array_.push_back(std::move(value));
}

// --- serialization ----------------------------------------------------------

std::string escape(const std::string& text) {
  std::string result;
  result.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        result += "\\\"";
        break;
      case '\\':
        result += "\\\\";
        break;
      case '\b':
        result += "\\b";
        break;
      case '\f':
        result += "\\f";
        break;
      case '\n':
        result += "\\n";
        break;
      case '\r':
        result += "\\r";
        break;
      case '\t':
        result += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned int>(static_cast<unsigned char>(c)));
          result += buffer;
        } else {
          result += c;
        }
    }
  }
  return result;
}

void throw_out_of_range(const std::string& key, const Value& value) {
  throw std::runtime_error("json: \"" + key + "\" out of range: " +
                           value.dump());
}

std::uint64_t u64_field(const Value& value) {
  if (value.is_string()) {
    const std::string& text = value.as_string();
    try {
      if (text.empty() || text[0] == '-') throw std::runtime_error("");
      std::size_t consumed = 0;
      const std::uint64_t parsed = std::stoull(text, &consumed);
      if (consumed != text.size()) throw std::runtime_error("");
      return parsed;
    } catch (...) {
      throw std::runtime_error("json: not a uint64: \"" + text + "\"");
    }
  }
  return value.as_u64();
}

std::string Value::dump() const {
  std::string out;
  dump(out);
  return out;
}

void Value::dump(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      out += scalar_;
      break;
    case Type::kString:
      out += '"';
      out += escape(scalar_);
      out += '"';
      break;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const Value& element : array_) {
        if (!first) out += ',';
        first = false;
        element.dump(out);
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : object_) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += escape(key);
        out += "\":";
        member.dump(out);
      }
      out += '}';
      break;
    }
  }
}

Value Value::parse(const std::string& text) {
  return Parser(text).parse_document();
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
    case Type::kString:
      return scalar_ == other.scalar_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

}  // namespace json
}  // namespace unilocal
