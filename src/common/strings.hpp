// String helpers shared across the parsers (IDS rule language, HTTP, SMTP,
// DNS names) and report writers.
#pragma once

#include <optional>
#include <string>
#include <string_view>
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

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace sm::common
