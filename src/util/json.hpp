// The one JSON codec: a strict RFC 8259 reader and the string escaper that
// every JSON writer uses. The texts it reads are written by hand or by other
// tools (netlist deltas, job lines, journal records, run manifests), so the
// reader rejects everything the grammar does not allow instead of guessing:
//
//   * numbers must match the JSON number grammar; they are kept as their
//     source text and converted on request (as_double / as_int64), so an
//     integer field never passes through a double;
//   * \uXXXX escapes decode to UTF-8, surrogate pairs included; a lone
//     surrogate is an error;
//   * raw bytes below 0x20 inside strings are errors;
//   * a key repeated in one object is an error;
//   * arrays and objects nest at most kMaxDepth deep, so hostile input
//     cannot exhaust the stack.
//
// Errors read "<why> at offset N"; callers add their own prefix.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tv::json {

inline constexpr int kMaxDepth = 64;

struct Value {
  enum Type { Null, Bool, Num, Str, Arr, Obj };
  Type type = Null;
  bool b = false;
  std::string str;  // Str: the decoded string; Num: the number's source text
  std::vector<Value> arr;
  std::vector<std::pair<std::string, Value>> obj;  // in document order

  /// The member named `key` of an object, or nullptr.
  const Value* get(std::string_view key) const;
  /// A number whose value is finite as a double.
  std::optional<double> as_double() const;
  /// An integer token (no fraction or exponent) that fits in 64 bits.
  std::optional<std::int64_t> as_int64() const;
};

/// Parses `text`, which must hold exactly one value (whitespace around it is
/// allowed). On failure returns false and sets *error.
bool parse(std::string_view text, Value& out, std::string* error);

/// Appends `s` escaped for the inside of a JSON string: `"` `\` LF TAB CR as
/// two-character escapes, other bytes below 0x20 as \u00XX, every other byte
/// verbatim.
void escape_into(std::string& out, std::string_view s);

/// `s` escaped and wrapped in double quotes.
std::string quote(std::string_view s);

}  // namespace tv::json
