#include "core/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/error.hpp"

namespace hmm::json {

namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw PreconditionError("json: " + what + " at byte " +
                          std::to_string(pos));
}

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  Value document() {
    skip_ws();
    Value v = value(0);
    skip_ws();
    if (pos_ != s_.size()) fail(pos_, "trailing input after document");
    return v;
  }

 private:
  /// `depth` counts the objects and arrays around this value.
  Value value(int depth) {
    if (pos_ >= s_.size()) fail(pos_, "unexpected end of input");
    switch (s_[pos_]) {
      case '{': return object(depth + 1);
      case '[': return array(depth + 1);
      case '"': return Value::make_string(string());
      case 't': literal("true"); return Value::make_bool(true);
      case 'f': literal("false"); return Value::make_bool(false);
      case 'n': literal("null"); return Value{};
      default: return number();
    }
  }

  void check_depth(int depth) const {
    if (depth > kMaxDepth) {
      fail(pos_, "nesting deeper than " + std::to_string(kMaxDepth));
    }
  }

  Value object(int depth) {
    check_depth(depth);
    expect('{');
    std::map<std::string, Value> members;
    skip_ws();
    if (consume('}')) return Value::make_object(std::move(members));
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      skip_ws();
      members[std::move(key)] = value(depth);
      skip_ws();
      if (consume('}')) return Value::make_object(std::move(members));
      expect(',');
    }
  }

  Value array(int depth) {
    check_depth(depth);
    expect('[');
    std::vector<Value> items;
    skip_ws();
    if (consume(']')) return Value::make_array(std::move(items));
    for (;;) {
      skip_ws();
      items.push_back(value(depth));
      skip_ws();
      if (consume(']')) return Value::make_array(std::move(items));
      expect(',');
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail(pos_, "unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail(pos_ - 1, "raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail(pos_, "dangling escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': out += unicode_escape(); break;
        default: fail(pos_ - 1, "unknown escape");
      }
    }
  }

  /// \uXXXX — BMP only (no surrogate pairs; we never emit them).
  std::string unicode_escape() {
    if (pos_ + 4 > s_.size()) fail(pos_, "truncated \\u escape");
    unsigned cp = 0;
    for (int k = 0; k < 4; ++k) {
      const char h = s_[pos_++];
      cp <<= 4;
      if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
      else fail(pos_ - 1, "bad hex digit in \\u escape");
    }
    if (cp >= 0xD800 && cp <= 0xDFFF) fail(pos_, "surrogate \\u escape");
    std::string out;
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
    return out;
  }

  Value number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    const std::string_view tok = s_.substr(start, pos_ - start);
    if (tok.empty()) fail(start, "expected a value");
    std::int64_t i = 0;
    auto [iend, iec] = std::from_chars(tok.data(), tok.data() + tok.size(), i);
    if (iec == std::errc{} && iend == tok.data() + tok.size()) {
      return Value::make_int(i);
    }
    double d = 0.0;
    auto [dend, dec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (dec != std::errc{} || dend != tok.data() + tok.size()) {
      fail(start, "malformed number");
    }
    return Value::make_double(d);
  }

  void literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) fail(pos_, "bad literal");
    pos_ += lit.size();
  }

  void expect(char c) {
    if (!consume(c)) {
      fail(pos_, std::string("expected '") + c + "'");
    }
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Value::as_bool() const {
  HMM_REQUIRE(kind_ == Kind::kBool, "json: value is not a bool");
  return bool_;
}

std::int64_t Value::as_int64() const {
  HMM_REQUIRE(kind_ == Kind::kNumber && integral_,
              "json: value is not an integer");
  return integer_;
}

double Value::as_double() const {
  HMM_REQUIRE(kind_ == Kind::kNumber, "json: value is not a number");
  return integral_ ? static_cast<double>(integer_) : number_;
}

const std::string& Value::as_string() const {
  HMM_REQUIRE(kind_ == Kind::kString, "json: value is not a string");
  return string_;
}

const std::vector<Value>& Value::as_array() const {
  HMM_REQUIRE(kind_ == Kind::kArray, "json: value is not an array");
  return array_;
}

const std::map<std::string, Value>& Value::as_object() const {
  HMM_REQUIRE(kind_ == Kind::kObject, "json: value is not an object");
  return object_;
}

const Value& Value::get(const std::string& key) const {
  const Value* v = find(key);
  HMM_REQUIRE(v != nullptr, "json: missing object key \"" + key + "\"");
  return *v;
}

const Value* Value::find(const std::string& key) const {
  HMM_REQUIRE(kind_ == Kind::kObject, "json: value is not an object");
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::make_int(std::int64_t i) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.integral_ = true;
  v.integer_ = i;
  return v;
}

Value Value::make_double(double d) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::make_array(std::vector<Value> items) {
  Value v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

Value Value::make_object(std::map<std::string, Value> members) {
  Value v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

Value parse(std::string_view text) { return Parser(text).document(); }

namespace {

void write_value(const Value& v, std::string& out) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      out += "null";
      break;
    case Value::Kind::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case Value::Kind::kNumber:
      if (v.is_integer()) {
        out += std::to_string(v.as_int64());
      } else {
        const double d = v.as_double();
        HMM_REQUIRE(std::isfinite(d),
                    "json: non-finite numbers have no JSON spelling");
        char buf[32];
        // 17 significant digits: every finite double round-trips through
        // from_chars exactly, so to_string/parse is lossless.
        std::snprintf(buf, sizeof buf, "%.17g", d);
        out += buf;
      }
      break;
    case Value::Kind::kString:
      out.push_back('"');
      out += escape(v.as_string());
      out.push_back('"');
      break;
    case Value::Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Value& item : v.as_array()) {
        if (!first) out.push_back(',');
        first = false;
        write_value(item, out);
      }
      out.push_back(']');
      break;
    }
    case Value::Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, member] : v.as_object()) {
        if (!first) out.push_back(',');
        first = false;
        out.push_back('"');
        out += escape(key);
        out += "\":";
        write_value(member, out);
      }
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

std::string to_string(const Value& value) {
  std::string out;
  write_value(value, out);
  return out;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace hmm::json
