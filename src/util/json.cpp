#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/contracts.hpp"

namespace vodbcast::util::json {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing garbage after document");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError(what, pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) {
      throw ParseError("unexpected end of input", pos_);
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Value parse_value() {
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Value(parse_string());
      case 't':
        if (consume_literal("true")) {
          return Value(true);
        }
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) {
          return Value(false);
        }
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) {
          return Value();
        }
        fail("bad literal");
      default:
        return parse_number();
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      fail("malformed number");
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      fail("malformed number");
    }
    return Value(v);
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_codepoint(out, parse_hex4()); break;
        default: fail("bad escape");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) {
      fail("truncated \\u escape");
    }
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4U;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    return code;
  }

  static void encode_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0U | (code >> 6U)));
      out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
    } else {
      out.push_back(static_cast<char>(0xE0U | (code >> 12U)));
      out.push_back(static_cast<char>(0x80U | ((code >> 6U) & 0x3FU)));
      out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
    }
  }

  // UTF-8-encodes a \u escape (surrogate pairs are combined when the low
  // half follows; a lone surrogate encodes as-is rather than erroring —
  // tooling input, not a validator).
  void append_codepoint(std::string& out, unsigned code) {
    if (code >= 0xD800 && code <= 0xDBFF && pos_ + 1 < text_.size() &&
        text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
      pos_ += 2;
      const unsigned low = parse_hex4();
      if (low >= 0xDC00 && low <= 0xDFFF) {
        const unsigned cp =
            0x10000U + ((code - 0xD800U) << 10U) + (low - 0xDC00U);
        out.push_back(static_cast<char>(0xF0U | (cp >> 18U)));
        out.push_back(static_cast<char>(0x80U | ((cp >> 12U) & 0x3FU)));
        out.push_back(static_cast<char>(0x80U | ((cp >> 6U) & 0x3FU)));
        out.push_back(static_cast<char>(0x80U | (cp & 0x3FU)));
        return;
      }
      encode_utf8(out, code);
      encode_utf8(out, low);
      return;
    }
    encode_utf8(out, code);
  }

  Value parse_array() {
    expect('[');
    Value::Array items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        skip_ws();
        continue;
      }
      expect(']');
      return Value(std::move(items));
    }
  }

  Value parse_object() {
    expect('{');
    Value::Object members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      members.insert_or_assign(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value(std::move(members));
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Value::as_bool() const {
  VB_EXPECTS_MSG(is_bool(), "json: value is not a bool");
  return std::get<bool>(data_);
}

double Value::as_number() const {
  VB_EXPECTS_MSG(is_number(), "json: value is not a number");
  return std::get<double>(data_);
}

const std::string& Value::as_string() const {
  VB_EXPECTS_MSG(is_string(), "json: value is not a string");
  return std::get<std::string>(data_);
}

const Value::Array& Value::as_array() const {
  VB_EXPECTS_MSG(is_array(), "json: value is not an array");
  return std::get<Array>(data_);
}

const Value::Object& Value::as_object() const {
  VB_EXPECTS_MSG(is_object(), "json: value is not an object");
  return std::get<Object>(data_);
}

const Value* Value::find(const std::string& key) const {
  if (!is_object()) {
    return nullptr;
  }
  const auto& members = std::get<Object>(data_);
  const auto it = members.find(key);
  return it == members.end() ? nullptr : &it->second;
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  VB_EXPECTS_MSG(v != nullptr, "json: missing key '" + key + "'");
  return *v;
}

double Value::number_or(const std::string& key, double fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

std::string Value::string_or(const std::string& key,
                             const std::string& fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

std::string quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

namespace {

void dump_into(const Value& value, std::string& out) {
  switch (value.kind()) {
    case Value::Kind::kNull:
      out += "null";
      return;
    case Value::Kind::kBool:
      out += value.as_bool() ? "true" : "false";
      return;
    case Value::Kind::kNumber:
      out += number(value.as_number());
      return;
    case Value::Kind::kString:
      out += quote(value.as_string());
      return;
    case Value::Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const auto& item : value.as_array()) {
        if (!first) {
          out.push_back(',');
        }
        dump_into(item, out);
        first = false;
      }
      out.push_back(']');
      return;
    }
    case Value::Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, item] : value.as_object()) {
        if (!first) {
          out.push_back(',');
        }
        out += quote(key);
        out.push_back(':');
        dump_into(item, out);
        first = false;
      }
      out.push_back('}');
      return;
    }
  }
}

}  // namespace

std::string dump(const Value& value) {
  std::string out;
  dump_into(value, out);
  return out;
}

std::vector<Value> parse_jsonl(std::string_view text) {
  std::vector<Value> docs;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    std::string_view line = text.substr(start, end - start);
    // Tolerate \r\n input and blank separator lines.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    if (!line.empty()) {
      docs.push_back(parse(line));
    }
    start = end + 1;
  }
  return docs;
}

}  // namespace vodbcast::util::json
