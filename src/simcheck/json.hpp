// Minimal JSON value model with a recursive-descent parser and a
// deterministic writer.
//
// The rest of the tree only ever *emits* JSON (hand-rolled format
// strings over common::json_escape). simcheck also has to *read* it
// back: checked-in counterexamples in tests/corpus/ are
// `{seed, scenario}` JSON documents that must replay byte-for-byte
// across sessions. No external dependency, so a small parser lives
// here. Objects keep insertion order on write but compare by content;
// numbers are int64 when they round-trip exactly, double otherwise.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sm::simcheck {

class Json {
 public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Json() = default;
  static Json null() { return Json(); }
  static Json boolean(bool b);
  static Json integer(int64_t v);
  static Json number(double v);
  static Json string(std::string s);
  static Json array();
  static Json object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }

  bool as_bool(bool fallback = false) const;
  int64_t as_int(int64_t fallback = 0) const;
  double as_double(double fallback = 0.0) const;
  const std::string& as_string() const;  // empty string if not a string

  /// Array access.
  const std::vector<Json>& items() const { return array_; }
  void push_back(Json v) { array_.push_back(std::move(v)); }

  /// Object access. `get` returns nullptr when the key is absent.
  const Json* get(std::string_view key) const;
  /// Sets (or replaces) a key, preserving first-insertion order.
  void set(std::string_view key, Json v);
  const std::vector<std::pair<std::string, Json>>& members() const {
    return object_;
  }

  /// Compact deterministic serialization (no whitespace).
  std::string dump() const;
  /// Indented serialization for human-edited corpus files.
  std::string pretty(int indent = 2) const;

  /// Parses a complete JSON document; nullopt on any syntax error or
  /// trailing garbage.
  static std::optional<Json> parse(std::string_view text);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;

  void write(std::string& out, int indent, int depth) const;
};

}  // namespace sm::simcheck
