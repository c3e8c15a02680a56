// String helpers shared across the parsers (IDS rule language, HTTP, SMTP,
// DNS names) and report writers.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace sm::common {

/// Splits on a single character; keeps empty fields.
std::vector<std::string_view> split(std::string_view s, char sep);

/// Splits on runs of whitespace; drops empty fields.
std::vector<std::string_view> split_whitespace(std::string_view s);

std::string_view trim(std::string_view s);

std::string to_lower(std::string_view s);

bool iequals(std::string_view a, std::string_view b);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Case-insensitive substring search; npos-style return.
size_t ifind(std::string_view haystack, std::string_view needle);
bool icontains(std::string_view haystack, std::string_view needle);

std::optional<long> parse_int(std::string_view s);

/// Joins with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Escapes a string for inclusion inside JSON quotes (RFC 8259): quote,
/// backslash and every byte below 0x20 are escaped; other bytes,
/// multibyte UTF-8 included, pass through. The one JSON string escaper
/// every export shares.
std::string json_escape(std::string_view s);
/// Appends json_escape(s) to `out` without a temporary.
void append_json_escaped(std::string& out, std::string_view s);

/// Appends each part to `out` without temporaries: integers in decimal
/// (std::to_chars), anything else (string, string_view, C string, char)
/// as text.
template <class... Parts>
void append(std::string& out, const Parts&... parts) {
  auto one = [&out](const auto& part) {
    using T = std::decay_t<decltype(part)>;
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, char>) {
      char buf[24];
      out.append(buf, std::to_chars(buf, buf + sizeof buf, part).ptr);
    } else {
      out += part;
    }
  };
  (one(parts), ...);
}

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace sm::common
