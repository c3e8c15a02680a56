#include "common/json.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/strings.hpp"

namespace sm::common {

Json Json::boolean(bool b) {
  Json j;
  j.kind_ = Kind::Bool;
  j.bool_ = b;
  return j;
}

Json Json::integer(int64_t v) {
  Json j;
  j.kind_ = Kind::Int;
  j.int_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.kind_ = Kind::Double;
  j.double_ = v;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.kind_ = Kind::String;
  j.string_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::Array;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::Object;
  return j;
}

bool Json::as_bool(bool fallback) const {
  return kind_ == Kind::Bool ? bool_ : fallback;
}

int64_t Json::as_int(int64_t fallback) const {
  if (kind_ == Kind::Int) return int_;
  if (kind_ == Kind::Double) return static_cast<int64_t>(double_);
  return fallback;
}

double Json::as_double(double fallback) const {
  if (kind_ == Kind::Double) return double_;
  if (kind_ == Kind::Int) return static_cast<double>(int_);
  return fallback;
}

const std::string& Json::as_string() const {
  static const std::string kEmpty;
  return kind_ == Kind::String ? string_ : kEmpty;
}

const Json* Json::get(std::string_view key) const {
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::set(std::string_view key, Json v) {
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  kind_ = Kind::Object;
  object_.emplace_back(std::string(key), std::move(v));
}

void Json::write(std::string& out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<size_t>(indent * d), ' ');
  };
  switch (kind_) {
    case Kind::Null:
      out += "null";
      break;
    case Kind::Bool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::Int: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(int_));
      out += buf;
      break;
    }
    case Kind::Double: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", double_);
      out += buf;
      break;
    }
    case Kind::String:
      out += '"';
      out += common::json_escape(string_);
      out += '"';
      break;
    case Kind::Array: {
      out += '[';
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        array_[i].write(out, indent, depth + 1);
      }
      if (!array_.empty()) newline(depth);
      out += ']';
      break;
    }
    case Kind::Object: {
      out += '{';
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        out += '"';
        out += common::json_escape(object_[i].first);
        out += "\":";
        if (indent > 0) out += ' ';
        object_[i].second.write(out, indent, depth + 1);
      }
      if (!object_.empty()) newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::string Json::pretty(int indent) const {
  std::string out;
  write(out, indent, 0);
  out += '\n';
  return out;
}

namespace {

struct Parser {
  std::string_view text;
  size_t pos = 0;
  int depth = 0;
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) == word) {
      pos += word.size();
      return true;
    }
    return false;
  }

  std::optional<std::string> parse_string() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos >= text.size()) return std::nullopt;
        char e = text[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > text.size()) return std::nullopt;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return std::nullopt;
            }
            // UTF-8 encode (corpus content is ASCII + the occasional
            // escaped codepoint; surrogate pairs are not needed).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Json> parse_value() {
    if (++depth > kMaxDepth) return std::nullopt;
    struct DepthGuard {
      int& d;
      ~DepthGuard() { --d; }
    } guard{depth};
    skip_ws();
    if (pos >= text.size()) return std::nullopt;
    char c = text[pos];
    if (c == '{') {
      ++pos;
      Json obj = Json::object();
      skip_ws();
      if (eat('}')) return obj;
      while (true) {
        auto key = parse_string();
        if (!key) return std::nullopt;
        if (!eat(':')) return std::nullopt;
        auto value = parse_value();
        if (!value) return std::nullopt;
        obj.set(*key, std::move(*value));
        if (eat(',')) continue;
        if (eat('}')) return obj;
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos;
      Json arr = Json::array();
      skip_ws();
      if (eat(']')) return arr;
      while (true) {
        auto value = parse_value();
        if (!value) return std::nullopt;
        arr.push_back(std::move(*value));
        if (eat(',')) continue;
        if (eat(']')) return arr;
        return std::nullopt;
      }
    }
    if (c == '"') {
      auto s = parse_string();
      if (!s) return std::nullopt;
      return Json::string(std::move(*s));
    }
    if (literal("true")) return Json::boolean(true);
    if (literal("false")) return Json::boolean(false);
    if (literal("null")) return Json::null();
    // Number.
    size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    if (pos == start) return std::nullopt;
    std::string num(text.substr(start, pos - start));
    if (num.find_first_of(".eE") == std::string::npos) {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(num.c_str(), &end, 10);
      if (errno == 0 && end && *end == '\0') return Json::integer(v);
    }
    char* end = nullptr;
    double d = std::strtod(num.c_str(), &end);
    if (!end || *end != '\0') return std::nullopt;
    return Json::number(d);
  }
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text) {
  Parser p{text};
  auto value = p.parse_value();
  if (!value) return std::nullopt;
  p.skip_ws();
  if (p.pos != text.size()) return std::nullopt;
  return value;
}

}  // namespace sm::common
