#include "src/base/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "src/base/strings.h"

namespace lv::json {

Value Value::Bool(bool b) {
  Value v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

Value Value::Number(double d) {
  Value v;
  v.type_ = Type::kNumber;
  v.num_ = d;
  return v;
}

Value Value::String(std::string s) {
  Value v;
  v.type_ = Type::kString;
  v.str_ = std::move(s);
  return v;
}

Value Value::Array(std::vector<Value> items) {
  Value v;
  v.type_ = Type::kArray;
  v.array_ = std::move(items);
  return v;
}

Value Value::Object(std::vector<Member> members) {
  Value v;
  v.type_ = Type::kObject;
  v.object_ = std::move(members);
  return v;
}

const char* Value::TypeName() const {
  switch (type_) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kNumber: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "?";
}

bool Value::AsBool() const {
  LV_CHECK_MSG(is_bool(), "JSON value is not a bool");
  return bool_;
}

double Value::AsDouble() const {
  LV_CHECK_MSG(is_number(), "JSON value is not a number");
  return num_;
}

int64_t Value::AsInt() const {
  LV_CHECK_MSG(is_number(), "JSON value is not a number");
  LV_CHECK_MSG(num_ == std::floor(num_), "JSON number is not integral");
  return static_cast<int64_t>(num_);
}

const std::string& Value::AsString() const {
  LV_CHECK_MSG(is_string(), "JSON value is not a string");
  return str_;
}

const std::vector<Value>& Value::AsArray() const {
  LV_CHECK_MSG(is_array(), "JSON value is not an array");
  return array_;
}

const std::vector<Member>& Value::AsObject() const {
  LV_CHECK_MSG(is_object(), "JSON value is not an object");
  return object_;
}

const Value* Value::Get(std::string_view key) const {
  if (!is_object()) {
    return nullptr;
  }
  for (const Member& m : object_) {
    if (m.first == key) {
      return &m.second;
    }
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  lv::Result<Value> ParseDocument() {
    SkipSpace();
    auto v = ParseValue();
    if (!v.ok()) {
      return v;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON value");
    }
    return v;
  }

 private:
  // 1-based line:column of the current position, for error messages.
  std::string Here(const std::string& what) const {
    int line = 1;
    int col = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return lv::StrFormat("%s at line %d column %d", what.c_str(), line, col);
  }

  lv::Error Fail(const std::string& what) const {
    return Err(ErrorCode::kInvalidArgument, Here(what));
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipSpace() {
    while (!AtEnd()) {
      char c = Peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        while (!AtEnd() && Peek() != '\n') {
          ++pos_;
        }
      } else {
        break;
      }
    }
  }

  lv::Result<Value> ParseValue() {
    if (AtEnd()) {
      return Fail("unexpected end of input");
    }
    switch (Peek()) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': {
        auto s = ParseString();
        if (!s.ok()) {
          return s.error();
        }
        return Value::String(*std::move(s));
      }
      case 't':
      case 'f': return ParseKeyword();
      case 'n': {
        auto k = ParseKeyword();
        return k;
      }
      default: return ParseNumber();
    }
  }

  lv::Result<Value> ParseKeyword() {
    auto match = [&](std::string_view word) {
      return text_.substr(pos_, word.size()) == word;
    };
    if (match("true")) {
      pos_ += 4;
      return Value::Bool(true);
    }
    if (match("false")) {
      pos_ += 5;
      return Value::Bool(false);
    }
    if (match("null")) {
      pos_ += 4;
      return Value::Null();
    }
    return Fail("invalid token");
  }

  lv::Result<Value> ParseNumber() {
    size_t start = pos_;
    if (!AtEnd() && Peek() == '-') {
      ++pos_;
    }
    while (!AtEnd() && (std::isdigit(static_cast<unsigned char>(Peek())) ||
                        Peek() == '.' || Peek() == 'e' || Peek() == 'E' ||
                        Peek() == '+' || Peek() == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("invalid token");
    }
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      return Fail(lv::StrFormat("invalid number '%s'", token.c_str()));
    }
    return Value::Number(d);
  }

  lv::Result<std::string> ParseString() {
    if (AtEnd() || Peek() != '"') {
      return Fail("expected '\"'");
    }
    ++pos_;
    std::string out;
    while (true) {
      if (AtEnd()) {
        return Fail("unterminated string");
      }
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (AtEnd()) {
        return Fail("unterminated escape");
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          int code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += h - '0';
            } else if (h >= 'a' && h <= 'f') {
              code += h - 'a' + 10;
            } else if (h >= 'A' && h <= 'F') {
              code += h - 'A' + 10;
            } else {
              return Fail("bad \\u escape");
            }
          }
          // Specs are ASCII in practice; encode BMP code points as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return Fail("unknown escape");
      }
    }
  }

  lv::Result<Value> ParseArray() {
    ++pos_;  // consume '['
    std::vector<Value> items;
    SkipSpace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      return Value::Array(std::move(items));
    }
    while (true) {
      SkipSpace();
      if (!AtEnd() && Peek() == ']' && !items.empty()) {
        ++pos_;  // trailing comma
        return Value::Array(std::move(items));
      }
      auto v = ParseValue();
      if (!v.ok()) {
        return v;
      }
      items.push_back(*std::move(v));
      SkipSpace();
      if (AtEnd()) {
        return Fail("unterminated array");
      }
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return Value::Array(std::move(items));
      }
      return Fail("expected ',' or ']'");
    }
  }

  lv::Result<Value> ParseObject() {
    ++pos_;  // consume '{'
    std::vector<Member> members;
    SkipSpace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      return Value::Object(std::move(members));
    }
    while (true) {
      SkipSpace();
      if (!AtEnd() && Peek() == '}' && !members.empty()) {
        ++pos_;  // trailing comma
        return Value::Object(std::move(members));
      }
      auto key = ParseString();
      if (!key.ok()) {
        return key.error();
      }
      for (const Member& m : members) {
        if (m.first == *key) {
          return Fail(lv::StrFormat("duplicate key '%s'", key->c_str()));
        }
      }
      SkipSpace();
      if (AtEnd() || Peek() != ':') {
        return Fail("expected ':'");
      }
      ++pos_;
      SkipSpace();
      auto v = ParseValue();
      if (!v.ok()) {
        return v;
      }
      members.emplace_back(*std::move(key), *std::move(v));
      SkipSpace();
      if (AtEnd()) {
        return Fail("unterminated object");
      }
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return Value::Object(std::move(members));
      }
      return Fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

lv::Result<Value> Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace lv::json
