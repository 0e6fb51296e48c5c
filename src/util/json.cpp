#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

namespace tv::json {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

void append_utf8(std::string& out, std::uint32_t cp) {
  static constexpr unsigned char kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
  const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
  for (int k = tail - 1; k >= 0; --k) out += static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3F));
}

class Reader {
 public:
  explicit Reader(std::string_view text) : s_(text) {}

  bool document(Value& out) {
    if (!value(out, 0)) return false;
    skip_ws();
    if (i_ != s_.size()) return fail("trailing characters after the value");
    return true;
  }

  std::string error;

 private:
  bool fail(const std::string& why) {
    error = why + " at offset " + std::to_string(i_);
    return false;
  }
  bool at(char c) const { return i_ < s_.size() && s_[i_] == c; }
  void skip_ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }

  bool value(Value& out, int depth) {
    skip_ws();
    if (i_ >= s_.size()) return fail("unexpected end of input");
    switch (s_[i_]) {
      case '{': out.type = Value::Obj; return object(out, depth + 1);
      case '[': out.type = Value::Arr; return array(out, depth + 1);
      case '"': out.type = Value::Str; return string(out.str);
      case 't': out.type = Value::Bool; out.b = true; return literal("true");
      case 'f': out.type = Value::Bool; return literal("false");
      case 'n': return literal("null");
      default: out.type = Value::Num; return number(out.str);
    }
  }

  bool literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return fail("bad literal");
    i_ += word.size();
    return true;
  }

  bool number(std::string& out) {
    const std::size_t start = i_;
    const bool negative = at('-');
    if (negative) ++i_;
    if (i_ >= s_.size() || !is_digit(s_[i_])) {
      return fail(negative ? "bad number" : "expected a value");
    }
    auto digits = [&] {
      const std::size_t from = i_;
      while (i_ < s_.size() && is_digit(s_[i_])) ++i_;
      return i_ > from;
    };
    if (at('0')) {
      ++i_;  // no leading zeros: "01" ends the number after the 0
    } else {
      digits();
    }
    if (at('.')) {
      ++i_;
      if (!digits()) return fail("bad number");
    }
    if (at('e') || at('E')) {
      ++i_;
      if (at('+') || at('-')) ++i_;
      if (!digits()) return fail("bad number");
    }
    out.assign(s_.substr(start, i_ - start));
    return true;
  }

  bool hex4(std::uint32_t& v) {
    const char* first = s_.data() + i_;
    const char* last = s_.data() + std::min(s_.size(), i_ + 4);
    auto [end, ec] = std::from_chars(first, last, v, 16);
    if (ec != std::errc{} || end != first + 4) return fail("bad \\u escape");
    i_ += 4;
    return true;
  }

  bool unicode(std::string& out) {
    std::uint32_t cp = 0;
    if (!hex4(cp)) return false;
    if (cp >= 0xDC00 && cp <= 0xDFFF) return fail("unpaired low surrogate");
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (s_.substr(i_, 2) != "\\u") return fail("unpaired high surrogate");
      i_ += 2;
      std::uint32_t lo = 0;
      if (!hex4(lo)) return false;
      if (lo < 0xDC00 || lo > 0xDFFF) return fail("unpaired high surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    }
    append_utf8(out, cp);
    return true;
  }

  bool string(std::string& out) {
    ++i_;  // opening quote
    for (;;) {
      if (i_ >= s_.size()) return fail("unterminated string");
      const char c = s_[i_];
      if (c == '"') {
        ++i_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return fail("raw control byte in a string");
      ++i_;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i_ >= s_.size()) return fail("unterminated string");
      switch (s_[i_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u':
          if (!unicode(out)) return false;
          break;
        default: --i_; return fail("bad escape");
      }
    }
  }

  bool array(Value& out, int depth) {
    return list(']', depth, [&] {
      out.arr.emplace_back();
      return value(out.arr.back(), depth);
    });
  }

  bool object(Value& out, int depth) {
    std::set<std::string> keys;
    return list('}', depth, [&] {
      skip_ws();
      if (!at('"')) return fail("expected a string key");
      const std::size_t key_at = i_;
      std::string key;
      if (!string(key)) return false;
      if (!keys.insert(key).second) {
        i_ = key_at;
        return fail("duplicate key \"" + key + "\"");
      }
      skip_ws();
      if (!at(':')) return fail("expected ':'");
      ++i_;
      out.obj.emplace_back(std::move(key), Value{});
      return value(out.obj.back().second, depth);
    });
  }

  /// The comma-separated items of an array or object, from its opening
  /// bracket at i_ through `close`.
  template <class Item>
  bool list(char close, int depth, Item item) {
    if (depth > kMaxDepth) return fail("nesting deeper than " + std::to_string(kMaxDepth));
    ++i_;  // the opening bracket
    skip_ws();
    if (at(close)) {
      ++i_;
      return true;
    }
    for (;;) {
      if (!item()) return false;
      skip_ws();
      if (at(close)) {
        ++i_;
        return true;
      }
      if (!at(',')) return fail(std::string("expected ',' or '") + close + "'");
      ++i_;
    }
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

}  // namespace

const Value* Value::get(std::string_view key) const {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<double> Value::as_double() const {
  if (type != Num) return std::nullopt;
  char* end = nullptr;
  double v = std::strtod(str.c_str(), &end);
  if (end != str.c_str() + str.size() || !std::isfinite(v)) return std::nullopt;
  return v;
}

std::optional<std::int64_t> Value::as_int64() const {
  if (type != Num || str.find_first_of(".eE") != std::string::npos) return std::nullopt;
  std::int64_t v = 0;
  auto [end, ec] = std::from_chars(str.data(), str.data() + str.size(), v);
  if (ec != std::errc{} || end != str.data() + str.size()) return std::nullopt;
  return v;
}

bool parse(std::string_view text, Value& out, std::string* error) {
  Reader reader(text);
  out = Value{};
  if (reader.document(out)) return true;
  if (error) *error = reader.error;
  return false;
}

void escape_into(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  escape_into(out, s);
  out += '"';
  return out;
}

}  // namespace tv::json
