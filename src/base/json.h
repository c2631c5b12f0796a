// Minimal JSON reader for declarative inputs (scenario specs). No new
// dependencies: a strict recursive-descent parser over std::string_view.
//
// Dialect: RFC 8259 JSON plus two conveniences for hand-written spec files —
// `//` line comments and a single trailing comma before `]` or `}`. Numbers
// are parsed as double (the specs carry counts, sizes and seeds that all fit
// a 53-bit mantissa). Objects preserve member order and reject duplicate
// keys, which is what lets the scenario layer report unknown or repeated
// fields precisely instead of silently last-one-wins.
//
// This is a *reader*: the repo's JSON artifacts (BENCH_*.json, traces,
// metrics) are written by purpose-built emitters and never round-trip
// through this type.
//
// Example:
//   auto doc = lv::json::Parse(R"({"nodes": 4, "policy": "first-fit"})");
//   int64_t nodes = doc->Get("nodes")->AsInt();
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/result.h"

namespace lv::json {

class Value;

// Object members, in document order.
using Member = std::pair<std::string, Value>;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : type_(Type::kNull) {}
  static Value Null() { return Value(); }
  static Value Bool(bool b);
  static Value Number(double d);
  static Value String(std::string s);
  static Value Array(std::vector<Value> items);
  static Value Object(std::vector<Member> members);

  Type type() const { return type_; }
  const char* TypeName() const;

  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Typed accessors; LV_CHECK on type mismatch (callers test is_*() first,
  // or go through the checked Result-returning helpers in the spec layer).
  bool AsBool() const;
  double AsDouble() const;
  int64_t AsInt() const;  // checks the double is integral
  const std::string& AsString() const;
  const std::vector<Value>& AsArray() const;
  const std::vector<Member>& AsObject() const;

  // Object lookup; nullptr when absent (or when this is not an object).
  const Value* Get(std::string_view key) const;

 private:
  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Value> array_;
  std::vector<Member> object_;
};

// Parses one JSON document; trailing garbage after the top-level value is an
// error. Error messages carry 1-based line/column.
lv::Result<Value> Parse(std::string_view text);

}  // namespace lv::json
