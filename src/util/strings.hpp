// Small string helpers shared by the assertion parser and the HDL front end.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace tv {

// Character classes of the "C" locale, the only one the program runs in.
// They are inline tests because the front end classifies every source
// character, and each <cctype> function is a library call.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }
constexpr bool is_alpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }
constexpr bool is_alnum(char c) { return is_alpha(c) || is_digit(c); }
constexpr char to_upper(char c) { return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c; }

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Splits on a delimiter character; empty fields are preserved.
std::vector<std::string_view> split(std::string_view s, char delim);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Case-sensitive string → double, returning false on any trailing junk.
bool parse_double(std::string_view s, double& out);

/// Uppercases ASCII in place and returns the copy.
std::string upper(std::string_view s);

}  // namespace tv
